/**
 * @file
 * Deterministic gradient-compression registry for the wire.
 *
 * Production training stacks rarely ship raw fp32 gradients: sparsifiers
 * (random-k, deep gradient compression) and quantizers (EF-SignSGD,
 * 1-bit SGD) shrink the bytes a collective puts on the link at the cost
 * of an encode kernel on every sender and a decode kernel on every
 * receiver. This module models exactly that trade, and nothing else:
 * each compressor is
 *
 *   - a wire-byte shrink function (payload bytes -> compressed bytes,
 *     fidelity-free and fully deterministic), and
 *   - a pair of profiled kernel cost descriptors (gradCompress_* on the
 *     sender lane, gradDecompress_* on the receiver lane) charged
 *     through the standard kernel-duration model.
 *
 * The communicator applies the shrink per scheduler chunk, riding the
 * next()/finishChunk() pump so compression composes with the
 * fifo/priority/partitioned policies and the hierarchical cluster path.
 * Convergence effects are out of scope — this is a performance model,
 * so `none` must replay the uncompressed event stream bit-exactly.
 */

#ifndef DGXSIM_COMM_COMPRESSION_HH
#define DGXSIM_COMM_COMPRESSION_HH

#include <string>
#include <vector>

#include "sim/types.hh"

namespace dgxsim::comm {

/** Gradient compressor applied to every wire chunk. */
enum class Compressor
{
    None,      ///< raw fp32 gradients (bit-exact legacy path)
    RandomK,   ///< keep a random ratio of elements as (index, value)
    Dgc,       ///< deep gradient compression: top-k by magnitude
    EfSignSgd, ///< error-feedback SignSGD: 1 bit/element + scale
    OneBit,    ///< 1-bit SGD: 1 bit/element + two cluster centroids
};

/** One registry row, for `dgxprof compressors`. */
struct CompressorInfo
{
    Compressor comp;
    const char *name;
    const char *description;
    /** True when the compressor consumes the --compress-ratio knob. */
    bool usesRatio;
};

/** @return every registered compressor with a one-line description. */
const std::vector<CompressorInfo> &compressorRegistry();

/** @return the registered names, in registry order. */
std::vector<std::string> compressorNames();

/** @return a printable name ("none", "randomk", "dgc", ...). */
const char *compressorName(Compressor comp);

/** Parse a compressor name (fatal with a did-you-mean otherwise). */
Compressor parseCompressor(const std::string &name);

/**
 * The one rule for a kept-element fraction, shared by the CLI's
 * --compress-ratio and the record reader: fatal unless @p ratio is in
 * (0, 1] (NaN included), naming @p what (the option, or the record
 * and member).
 */
template <typename... What>
void
checkCompressRatio(double ratio, const What &...what)
{
    if (!(ratio > 0.0 && ratio <= 1.0))
        sim::fatal(what..., " must be in (0, 1], got ", ratio);
}

/**
 * @return the bytes @p comp puts on the wire for a @p payload-byte
 * fp32 gradient chunk. @p ratio is the kept-element fraction of the
 * sparsifying compressors (randomk/dgc), in (0, 1]; the quantizers
 * ignore it.
 * Deterministic, monotone in @p payload, never larger than @p payload
 * and zero only for a zero payload.
 */
sim::Bytes compressedWireBytes(Compressor comp, sim::Bytes payload,
                               double ratio);

/** FLOP/HBM-byte cost of one encode or decode kernel. */
struct CompressionKernelCost
{
    double flops = 0;
    double bytes = 0;
};

/**
 * @return the cost of the sender-side encode kernel turning a
 * @p payload-byte chunk into @p wire bytes.
 */
CompressionKernelCost compressKernelCost(Compressor comp,
                                         sim::Bytes payload,
                                         sim::Bytes wire);

/**
 * @return the cost of the receiver-side decode kernel expanding
 * @p wire bytes back into a @p payload-byte dense gradient.
 */
CompressionKernelCost decompressKernelCost(Compressor comp,
                                           sim::Bytes payload,
                                           sim::Bytes wire);

/** @return the encode kernel's record name ("gradCompress_dgc"). */
std::string compressKernelName(Compressor comp);

/** @return the decode kernel's record name ("gradDecompress_dgc"). */
std::string decompressKernelName(Compressor comp);

} // namespace dgxsim::comm

#endif // DGXSIM_COMM_COMPRESSION_HH
