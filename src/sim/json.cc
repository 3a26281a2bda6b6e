#include "sim/json.hh"

#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string_view>

#include "sim/logging.hh"

namespace aosd
{

Json
Json::array()
{
    Json j;
    j.node.emplace<Box<Array>>();
    return j;
}

Json
Json::object()
{
    Json j;
    j.node.emplace<Box<Object>>();
    return j;
}

bool
Json::asBool() const
{
    if (const bool *b = std::get_if<bool>(&node))
        return *b;
    fatal("JSON value is not a bool");
}

double
Json::asNumber() const
{
    if (const double *d = std::get_if<double>(&node))
        return *d;
    fatal("JSON value is not a number");
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
    if (const std::string *s = get<std::string>())
        return *s;
    fatal("JSON value is not a string");
}

void
Json::push(Json v)
{
    if (isNull())
        node.emplace<Box<Array>>();
    Array *arr = get<Array>();
    if (!arr)
        fatal("push on a non-array JSON value");
    arr->push_back(std::move(v));
}

std::size_t
Json::size() const
{
    if (const Array *arr = get<Array>())
        return arr->size();
    if (const Object *obj = get<Object>())
        return obj->size();
    return 0;
}

const Json &
Json::at(std::size_t i) const
{
    const Array *arr = get<Array>();
    if (!arr || i >= arr->size())
        fatal("JSON array index out of range");
    return (*arr)[i];
}

void
Json::set(const std::string &key, Json v)
{
    if (isNull())
        node.emplace<Box<Object>>();
    Object *obj = get<Object>();
    if (!obj)
        fatal("set on a non-object JSON value");
    for (auto &kv : *obj) {
        if (kv.first == key) {
            kv.second = std::move(v);
            return;
        }
    }
    obj->emplace_back(key, std::move(v));
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
    if (const Object *obj = get<Object>())
        for (const auto &kv : *obj)
            if (kv.first == key)
                return &kv.second;
    return nullptr;
}

const std::vector<std::pair<std::string, Json>> &
Json::items() const
{
    if (const Object *obj = get<Object>())
        return *obj;
    fatal("items() on a non-object JSON value");
}

namespace
{

/** Append `s` to `out` as a quoted, escaped JSON string. */
void
appendQuoted(std::string &out, const std::string &s)
{
    out += '"';
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
}

/**
 * Append `d`: whole numbers below 1e15 as integers, other finite values
 * as the shortest "%.{p}g" that round-trips, NaN and inf as null.
 */
void
appendNumber(std::string &out, double d)
{
    if (!std::isfinite(d)) {
        out += "null"; // JSON has no NaN/Inf
        return;
    }
    char buf[32];
    char *end = buf;
    if (d == std::floor(d) && std::fabs(d) < 1e15) {
        // Exact, with "%.0f"'s "-0" for negative zero.
        end = std::to_chars(buf, buf + sizeof(buf), d,
                            std::chars_format::fixed).ptr;
    } else {
        // to_chars writes the fewest digits that round-trip, so no
        // shorter "%.{p}g" (to_chars general, precision p) can: start
        // at its digit count. At a power-of-two boundary the rounded
        // p-digit value can still miss, so step up until it reads
        // back; "%.17g" always does.
        end = std::to_chars(buf, buf + sizeof(buf), d,
                            std::chars_format::scientific).ptr;
        int prec = 0;
        for (char *c = buf; c != end && *c != 'e'; ++c)
            prec += std::isdigit(static_cast<unsigned char>(*c)) ? 1 : 0;
        for (double back = 0; back != d && prec <= 17; ++prec) {
            end = std::to_chars(buf, buf + sizeof(buf), d,
                                std::chars_format::general, prec).ptr;
            std::from_chars(buf, end, back);
        }
    }
    out.append(buf, end);
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

    switch (kind()) {
      case Kind::Null:
        out += "null";
        break;
      case Kind::Bool:
        out += std::get<bool>(node) ? "true" : "false";
        break;
      case Kind::Number:
        appendNumber(out, std::get<double>(node));
        break;
      case Kind::String:
        appendQuoted(out, *get<std::string>());
        break;
      case Kind::Array: {
        const Array &arr = *get<Array>();
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
      }
      case Kind::Object: {
        const Object &obj = *get<Object>();
        if (obj.empty()) {
            out += "{}";
            break;
        }
        out += '{';
        for (std::size_t i = 0; i < obj.size(); ++i) {
            if (i)
                out += ',';
            newline(depth + 1);
            appendQuoted(out, obj[i].first);
            out += indent < 0 ? ":" : ": ";
            obj[i].second.dumpTo(out, indent, depth + 1);
        }
        newline(depth);
        out += '}';
        break;
      }
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

/** Recursive-descent parser over a string view + cursor. */
class Json::Parser
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
    literal(std::string_view word)
    {
        if (!std::string_view(src).substr(pos).starts_with(word))
            return false;
        pos += word.size();
        return true;
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
        Object &members = *out.get<Object>();
        // Indices by key: a repeated key updates its first slot in O(log n).
        auto byKey = [&](std::size_t a, std::size_t b) {
            return members[a].first < members[b].first;
        };
        std::set<std::size_t, decltype(byKey)> seen(byKey);
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
            members.emplace_back(std::move(key), value());
            if (auto [at, fresh] = seen.insert(members.size() - 1); !fresh) {
                members[*at].second = std::move(members.back().second);
                members.pop_back();
            }
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
        consume('-');
        while (pos < src.size() &&
               (std::isdigit(static_cast<unsigned char>(src[pos])) ||
                src[pos] == '.' || src[pos] == 'e' || src[pos] == 'E' ||
                src[pos] == '+' || src[pos] == '-'))
            ++pos;
        const char *last = src.data() + pos;
        double d = 0;
        auto [end, ec] = std::from_chars(src.data() + start, last, d);
        if (ec == std::errc::invalid_argument || end != last) {
            fail("malformed number");
            return Json();
        }
        // from_chars also reports underflow as out of range; strtod's
        // rule reads it as +-0 and overflow as inf.
        if (ec == std::errc::result_out_of_range)
            d = std::strtod(src.data() + start, nullptr);
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

Json
Json::parse(const std::string &text, std::string *error)
{
    Parser p(text, error);
    Json v = p.document();
    return p.ok() ? v : Json();
}

} // namespace aosd
