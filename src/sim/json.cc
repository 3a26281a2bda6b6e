#include "sim/json.hh"

#include <cctype>
#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "sim/logging.hh"

namespace aosd
{

Json
Json::array()
{
    Json j;
    j.kind_ = Kind::Array;
    return j;
}

Json
Json::object()
{
    Json j;
    j.kind_ = Kind::Object;
    return j;
}

bool
Json::asBool() const
{
    if (kind_ != Kind::Bool)
        fatal("JSON value is not a bool");
    return boolValue;
}

double
Json::asNumber() const
{
    if (kind_ != Kind::Number)
        fatal("JSON value is not a number");
    return numValue;
}

std::uint64_t
Json::asUint() const
{
    double d = asNumber();
    if (d < 0)
        fatal("JSON number is negative, expected unsigned");
    return static_cast<std::uint64_t>(d + 0.5);
}

const std::string &
Json::asString() const
{
    if (kind_ != Kind::String)
        fatal("JSON value is not a string");
    return strValue;
}

void
Json::push(Json v)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Array;
    if (kind_ != Kind::Array)
        fatal("push on a non-array JSON value");
    arr.push_back(std::move(v));
}

std::size_t
Json::size() const
{
    if (kind_ == Kind::Array)
        return arr.size();
    if (kind_ == Kind::Object)
        return obj.size();
    return 0;
}

const Json &
Json::at(std::size_t i) const
{
    if (kind_ != Kind::Array || i >= arr.size())
        fatal("JSON array index out of range");
    return arr[i];
}

void
Json::set(const std::string &key, Json v)
{
    if (kind_ == Kind::Null)
        kind_ = Kind::Object;
    if (kind_ != Kind::Object)
        fatal("set on a non-object JSON value");
    for (auto &kv : obj) {
        if (kv.first == key) {
            kv.second = std::move(v);
            return;
        }
    }
    obj.emplace_back(key, std::move(v));
}

bool
Json::has(const std::string &key) const
{
    return find(key) != nullptr;
}

const Json &
Json::at(const std::string &key) const
{
    if (const Json *v = find(key))
        return *v;
    fatal("JSON object has no key '%s'", key.c_str());
}

const Json *
Json::find(const std::string &key) const
{
    if (kind_ != Kind::Object)
        return nullptr;
    for (const auto &kv : obj)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

const std::vector<std::pair<std::string, Json>> &
Json::items() const
{
    if (kind_ != Kind::Object)
        fatal("items() on a non-object JSON value");
    return obj;
}

std::string
jsonQuote(const std::string &s)
{
    std::string out = "\"";
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          case '\r':
            out += "\\r";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    out += '"';
    return out;
}

namespace
{

/** Shortest-roundtrip-ish number formatting: integers stay integral. */
std::string
formatNumber(double d)
{
    if (std::isnan(d) || std::isinf(d))
        return "null"; // JSON has no NaN/Inf
    if (d == std::floor(d) && std::fabs(d) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", d);
        return buf;
    }
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    // Trim to the shortest representation that round-trips.
    for (int prec = 1; prec < 17; ++prec) {
        char probe[32];
        std::snprintf(probe, sizeof(probe), "%.*g", prec, d);
        if (std::strtod(probe, nullptr) == d)
            return probe;
    }
    return buf;
}

} // namespace

void
Json::dumpTo(std::string &out, int indent, int depth) const
{
    auto newline = [&](int d) {
        if (indent < 0)
            return;
        out += '\n';
        out.append(static_cast<std::size_t>(indent) * d, ' ');
    };

    switch (kind_) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += boolValue ? "true" : "false";
        break;
      case Kind::Number:
        out += formatNumber(numValue);
        break;
      case Kind::String:
        out += jsonQuote(strValue);
        break;
      case Kind::Array:
        if (arr.empty()) {
            out += "[]";
            break;
        }
        out += '[';
        for (std::size_t i = 0; i < arr.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            arr[i].dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += ']';
        break;
      case Kind::Object:
        if (obj.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < obj.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            out += jsonQuote(obj[i].first);
            out += indent < 0 ? ":" : ": ";
            obj[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
    }
}

std::string
Json::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    if (indent >= 0)
        out += '\n';
    return out;
}

bool
Json::operator==(const Json &o) const
{
    if (kind_ != o.kind_)
        return false;
    switch (kind_) {
      case Kind::Null:
        return true;
      case Kind::Bool:
        return boolValue == o.boolValue;
      case Kind::Number:
        return numValue == o.numValue;
      case Kind::String:
        return strValue == o.strValue;
      case Kind::Array:
        return arr == o.arr;
      case Kind::Object:
        return obj == o.obj;
    }
    return false;
}

namespace
{

/** Recursive-descent parser over a string view + cursor. */
class Parser
{
  public:
    Parser(const std::string &text, std::string *error)
        : src(text), err(error)
    {}

    Json
    document()
    {
        Json v = value();
        if (failed)
            return Json();
        skipWs();
        if (pos != src.size()) {
            fail("trailing characters after document");
            return Json();
        }
        return v;
    }

    bool ok() const { return !failed; }

  private:
    void
    fail(const std::string &what)
    {
        if (!failed && err)
            *err = what + " at offset " + std::to_string(pos);
        failed = true;
    }

    void
    skipWs()
    {
        while (pos < src.size() &&
               (src[pos] == ' ' || src[pos] == '\t' ||
                src[pos] == '\n' || src[pos] == '\r'))
            ++pos;
    }

    bool
    consume(char c)
    {
        if (pos < src.size() && src[pos] == c) {
            ++pos;
            return true;
        }
        return false;
    }

    bool
    literal(const char *word)
    {
        std::size_t n = std::string(word).size();
        if (src.compare(pos, n, word) == 0) {
            pos += n;
            return true;
        }
        return false;
    }

    Json
    value()
    {
        skipWs();
        if (pos >= src.size()) {
            fail("unexpected end of input");
            return Json();
        }
        char c = src[pos];
        if (c == '{' || c == '[') {
            // Each level is a native stack frame; bound it so hostile
            // input fails instead of overflowing the stack.
            if (depth == maxDepth) {
                fail("nesting too deep");
                return Json();
            }
            ++depth;
            Json v = c == '{' ? object() : array();
            --depth;
            return v;
        }
        if (c == '"')
            return Json(string());
        if (literal("true"))
            return Json(true);
        if (literal("false"))
            return Json(false);
        if (literal("null"))
            return Json(nullptr);
        if (c == '-' || std::isdigit(static_cast<unsigned char>(c)))
            return number();
        fail("unexpected character");
        return Json();
    }

    Json
    object()
    {
        Json out = Json::object();
        consume('{');
        skipWs();
        if (consume('}'))
            return out;
        while (!failed) {
            skipWs();
            if (pos >= src.size() || src[pos] != '"') {
                fail("expected object key");
                break;
            }
            std::string key = string();
            skipWs();
            if (!consume(':')) {
                fail("expected ':' after key");
                break;
            }
            out.set(key, value());
            skipWs();
            if (consume(','))
                continue;
            if (consume('}'))
                break;
            fail("expected ',' or '}' in object");
        }
        return out;
    }

    Json
    array()
    {
        Json out = Json::array();
        consume('[');
        skipWs();
        if (consume(']'))
            return out;
        while (!failed) {
            out.push(value());
            skipWs();
            if (consume(','))
                continue;
            if (consume(']'))
                break;
            fail("expected ',' or ']' in array");
        }
        return out;
    }

    std::string
    string()
    {
        consume('"');
        std::string out;
        while (pos < src.size()) {
            char c = src[pos++];
            if (c == '"')
                return out;
            if (c != '\\') {
                out += c;
                continue;
            }
            if (pos >= src.size())
                break;
            char esc = src[pos++];
            switch (esc) {
              case '"':
                out += '"';
                break;
              case '\\':
                out += '\\';
                break;
              case '/':
                out += '/';
                break;
              case 'n':
                out += '\n';
                break;
              case 't':
                out += '\t';
                break;
              case 'r':
                out += '\r';
                break;
              case 'b':
                out += '\b';
                break;
              case 'f':
                out += '\f';
                break;
              case 'u': {
                if (pos + 4 > src.size()) {
                    fail("truncated \\u escape");
                    return out;
                }
                unsigned code = 0;
                for (int i = 0; i < 4; ++i) {
                    char h = src[pos++];
                    code <<= 4;
                    if (h >= '0' && h <= '9')
                        code += h - '0';
                    else if (h >= 'a' && h <= 'f')
                        code += 10 + h - 'a';
                    else if (h >= 'A' && h <= 'F')
                        code += 10 + h - 'A';
                    else {
                        fail("bad \\u escape");
                        return out;
                    }
                }
                // UTF-8 encode (basic plane only; enough for stats
                // and trace names, which are ASCII in practice).
                if (code < 0x80) {
                    out += static_cast<char>(code);
                } else if (code < 0x800) {
                    out += static_cast<char>(0xc0 | (code >> 6));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                } else {
                    out += static_cast<char>(0xe0 | (code >> 12));
                    out += static_cast<char>(0x80 |
                                             ((code >> 6) & 0x3f));
                    out += static_cast<char>(0x80 | (code & 0x3f));
                }
                break;
              }
              default:
                fail("unknown escape");
                return out;
            }
        }
        fail("unterminated string");
        return out;
    }

    Json
    number()
    {
        std::size_t start = pos;
        if (consume('-')) {}
        while (pos < src.size() &&
               (std::isdigit(static_cast<unsigned char>(src[pos])) ||
                src[pos] == '.' || src[pos] == 'e' || src[pos] == 'E' ||
                src[pos] == '+' || src[pos] == '-'))
            ++pos;
        std::string tok = src.substr(start, pos - start);
        char *end = nullptr;
        double d = std::strtod(tok.c_str(), &end);
        if (end == tok.c_str() || *end != '\0') {
            fail("malformed number");
            return Json();
        }
        if (!std::isfinite(d)) {
            fail("number out of range");
            return Json();
        }
        return Json(d);
    }

    const std::string &src;
    std::string *err;
    std::size_t pos = 0;
    /** Open arrays/objects; capped at maxDepth. */
    unsigned depth = 0;
    static constexpr unsigned maxDepth = 512;
    bool failed = false;
};

} // namespace

Json
Json::parse(const std::string &text, std::string *error)
{
    Parser p(text, error);
    Json v = p.document();
    return p.ok() ? v : Json();
}

} // namespace aosd
