/**
 * @file
 * A one-shot completion event, analogous to cudaEvent_t used for
 * cross-stream and host-device synchronization.
 */

#ifndef DGXSIM_CUDA_CUDA_EVENT_HH
#define DGXSIM_CUDA_CUDA_EVENT_HH

#include <functional>
#include <utility>
#include <vector>

namespace dgxsim::cuda {

/**
 * One-shot event: starts unsignaled; signal() releases every waiter.
 * Waiters registered after signaling run immediately.
 */
class CudaEvent
{
  public:
    /** Mark the event complete and release all waiters. */
    void
    signal()
    {
        if (signaled_)
            return;
        signaled_ = true;
        std::vector<std::function<void()>> waiters;
        waiters.swap(waiters_);
        for (auto &w : waiters)
            w();
    }

    /**
     * Run @p fn when the event signals (immediately if it already
     * has).
     */
    void
    onSignal(std::function<void()> fn)
    {
        if (signaled_)
            fn();
        else
            waiters_.push_back(std::move(fn));
    }

  private:
    bool signaled_ = false;
    std::vector<std::function<void()>> waiters_;
};

} // namespace dgxsim::cuda

#endif // DGXSIM_CUDA_CUDA_EVENT_HH
