#include "campaign/json.hh"

#include <cctype>
#include <optional>

#include "sim/logging.hh"
#include "sim/suggest.hh"

namespace dgxsim::campaign {

bool
JsonValue::asBool() const
{
    if (kind_ != Kind::Bool)
        sim::fatal("JSON value is not a boolean");
    return bool_;
}

double
JsonValue::asNumber() const
{
    if (kind_ != Kind::Number)
        sim::fatal("JSON value is not a number");
    if (!string_.empty())
        sim::fatal("'", string_, "' is not a finite number");
    return number_;
}

const std::string &
JsonValue::asString() const
{
    if (kind_ != Kind::String)
        sim::fatal("JSON value is not a string");
    return string_;
}

const std::vector<JsonValue> &
JsonValue::asArray() const
{
    if (kind_ != Kind::Array)
        sim::fatal("JSON value is not an array");
    return array_;
}

const std::map<std::string, JsonValue> &
JsonValue::asObject() const
{
    if (kind_ != Kind::Object)
        sim::fatal("JSON value is not an object");
    return object_;
}

const JsonValue &
JsonValue::at(const std::string &key) const
{
    const JsonValue *v = find(key);
    if (!v)
        sim::fatal("JSON object has no member '", key, "'");
    return *v;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        sim::fatal("JSON value is not an object");
    auto it = object_.find(key);
    return it == object_.end() ? nullptr : &it->second;
}

double
JsonValue::numberAt(const std::string &key) const
{
    return at(key).asNumber();
}

const std::string &
JsonValue::stringAt(const std::string &key) const
{
    return at(key).asString();
}

bool
JsonValue::boolAt(const std::string &key) const
{
    return at(key).asBool();
}

/** Strict recursive-descent parser over the emitted subset. */
class JsonParser
{
  public:
    explicit JsonParser(const std::string &text) : text_(text) {}

    JsonValue
    document()
    {
        JsonValue v = value();
        skipSpace();
        if (pos_ != text_.size())
            fail("trailing garbage after JSON document");
        return v;
    }

  private:
    [[noreturn]] void
    fail(const std::string &what)
    {
        sim::fatal("JSON parse error at byte ", pos_, ": ", what);
    }

    void
    skipSpace()
    {
        while (pos_ < text_.size() &&
               std::isspace(static_cast<unsigned char>(text_[pos_]))) {
            ++pos_;
        }
    }

    char
    peek()
    {
        if (pos_ >= text_.size())
            fail("unexpected end of input");
        return text_[pos_];
    }

    void
    expect(char c)
    {
        if (peek() != c)
            fail(std::string("expected '") + c + "', got '" + peek() +
                 "'");
        ++pos_;
    }

    bool
    consumeKeyword(const char *word)
    {
        const std::size_t len = std::string(word).size();
        if (text_.compare(pos_, len, word) != 0)
            return false;
        pos_ += len;
        return true;
    }

    JsonValue
    value()
    {
        skipSpace();
        switch (peek()) {
        case '{':
            return object();
        case '[':
            return array();
        case '"':
            return string();
        case 't':
        case 'f':
        case 'n':
            return keyword();
        default:
            return number();
        }
    }

    JsonValue
    keyword()
    {
        JsonValue v;
        if (consumeKeyword("true")) {
            v.kind_ = JsonValue::Kind::Bool;
            v.bool_ = true;
        } else if (consumeKeyword("false")) {
            v.kind_ = JsonValue::Kind::Bool;
            v.bool_ = false;
        } else if (consumeKeyword("null")) {
            v.kind_ = JsonValue::Kind::Null;
        } else {
            fail("unknown keyword");
        }
        return v;
    }

    JsonValue
    number()
    {
        const std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '-' || text_[pos_] == '+' ||
                text_[pos_] == '.' || text_[pos_] == 'e' ||
                text_[pos_] == 'E')) {
            ++pos_;
        }
        if (pos_ == start)
            fail("expected a value");
        const std::string token = text_.substr(start, pos_ - start);
        JsonValue out;
        out.kind_ = JsonValue::Kind::Number;
        if (const std::optional<double> v = sim::parseFinite(token))
            out.number_ = *v;
        else
            out.string_ = token; // asNumber() fails naming the token
        return out;
    }

    JsonValue
    string()
    {
        JsonValue v;
        v.kind_ = JsonValue::Kind::String;
        v.string_ = rawString();
        return v;
    }

    std::string
    rawString()
    {
        expect('"');
        std::string out;
        while (true) {
            if (pos_ >= text_.size())
                fail("unterminated string");
            const char c = text_[pos_++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out.push_back(c);
                continue;
            }
            if (pos_ >= text_.size())
                fail("unterminated escape");
            const char esc = text_[pos_++];
            switch (esc) {
            case '"':
            case '\\':
            case '/':
                out.push_back(esc);
                break;
            case 'b':
                out.push_back('\b');
                break;
            case 'f':
                out.push_back('\f');
                break;
            case 'n':
                out.push_back('\n');
                break;
            case 'r':
                out.push_back('\r');
                break;
            case 't':
                out.push_back('\t');
                break;
            case 'u': {
                if (pos_ + 4 > text_.size())
                    fail("truncated \\u escape");
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    const char h = text_[pos_++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code |= static_cast<unsigned>(h - '0');
                    else if (h >= 'a' && h <= 'f')
                        code |= static_cast<unsigned>(h - 'a' + 10);
                    else if (h >= 'A' && h <= 'F')
                        code |= static_cast<unsigned>(h - 'A' + 10);
                    else
                        fail("bad hex digit in \\u escape");
                }
                // Our own writer only escapes control characters;
                // encode the code point as UTF-8 for generality.
                if (code < 0x80) {
                    out.push_back(static_cast<char>(code));
                } else if (code < 0x800) {
                    out.push_back(
                        static_cast<char>(0xC0 | (code >> 6)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                } else {
                    out.push_back(
                        static_cast<char>(0xE0 | (code >> 12)));
                    out.push_back(static_cast<char>(
                        0x80 | ((code >> 6) & 0x3F)));
                    out.push_back(
                        static_cast<char>(0x80 | (code & 0x3F)));
                }
                break;
            }
            default:
                fail("unknown escape");
            }
        }
    }

    JsonValue
    array()
    {
        expect('[');
        JsonValue v;
        v.kind_ = JsonValue::Kind::Array;
        skipSpace();
        if (peek() == ']') {
            ++pos_;
            return v;
        }
        while (true) {
            v.array_.push_back(value());
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect(']');
            return v;
        }
    }

    JsonValue
    object()
    {
        expect('{');
        JsonValue v;
        v.kind_ = JsonValue::Kind::Object;
        skipSpace();
        if (peek() == '}') {
            ++pos_;
            return v;
        }
        while (true) {
            skipSpace();
            std::string key = rawString();
            skipSpace();
            expect(':');
            v.object_[key] = value();
            skipSpace();
            if (peek() == ',') {
                ++pos_;
                continue;
            }
            expect('}');
            return v;
        }
    }

    const std::string &text_;
    std::size_t pos_ = 0;
};

JsonValue
JsonValue::parse(const std::string &text)
{
    return JsonParser(text).document();
}

} // namespace dgxsim::campaign
