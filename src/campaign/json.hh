/**
 * @file
 * A minimal JSON reader for the campaign subsystem.
 *
 * dgxsim writes its own machine-readable results (campaign/record.hh
 * emits them with deterministic formatting) and must read them back
 * for `dgxprof check`, so the only JSON we ever parse is JSON we —
 * or a user editing a baseline — produced. This is a small strict
 * recursive-descent parser over that subset: objects, arrays,
 * strings (with \" \\ \/ \b \f \n \r \t \uXXXX escapes), numbers,
 * booleans and null. Malformed input raises sim::FatalError with the
 * byte offset of the problem. A number token that is not a finite
 * double (1e400, 1.2.3) parses, and asNumber() rejects it, so the
 * reader that asks for it can say which member holds it.
 */

#ifndef DGXSIM_CAMPAIGN_JSON_HH
#define DGXSIM_CAMPAIGN_JSON_HH

#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

namespace dgxsim::campaign {

/** One parsed JSON value (a tagged union). */
class JsonValue
{
  public:
    enum class Kind { Null, Bool, Number, String, Array, Object };

    JsonValue() = default;

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }

    /** @return the boolean payload (fatal if not a Bool). */
    bool asBool() const;

    /** @return the numeric payload (fatal if not a Number, or not a
     * finite double). */
    double asNumber() const;

    /** @return the string payload (fatal if not a String). */
    const std::string &asString() const;

    /** @return the array elements (fatal if not an Array). */
    const std::vector<JsonValue> &asArray() const;

    /** @return the members, key-sorted (fatal if not an Object). */
    const std::map<std::string, JsonValue> &asObject() const;

    /**
     * @return the named member (fatal if not an Object or the key is
     * absent).
     */
    const JsonValue &at(const std::string &key) const;

    /** @return the named member, or nullptr when absent. */
    const JsonValue *find(const std::string &key) const;

    /** Typed member accessors with a fatal on missing/mistyped. */
    double numberAt(const std::string &key) const;
    const std::string &stringAt(const std::string &key) const;
    bool boolAt(const std::string &key) const;

    /**
     * Parse @p text as one JSON document (trailing whitespace only
     * after the value). Throws sim::FatalError on malformed input.
     */
    static JsonValue parse(const std::string &text);

  private:
    friend class JsonParser;

    Kind kind_ = Kind::Null;
    bool bool_ = false;
    double number_ = 0;
    std::string string_;
    std::vector<JsonValue> array_;
    std::map<std::string, JsonValue> object_;
};

} // namespace dgxsim::campaign

#endif // DGXSIM_CAMPAIGN_JSON_HH
