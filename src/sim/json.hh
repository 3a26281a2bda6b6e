/**
 * @file
 * Minimal JSON value type with serializer and parser.
 *
 * The observability layer (StatRegistry snapshots, the cycle tracer's
 * chrome://tracing export, and tools/aosd_report's report.json) needs
 * machine-readable output, and the regression gate needs to read it
 * back. This is a deliberately small, dependency-free implementation:
 * objects preserve insertion order so emitted reports diff cleanly.
 */

#ifndef AOSD_SIM_JSON_HH
#define AOSD_SIM_JSON_HH

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

namespace aosd
{

/** A JSON document node: null, bool, number, string, array or object. */
class Json
{
  public:
    enum class Kind
    {
        Null,
        Bool,
        Number,
        String,
        Array,
        Object,
    };

    Json() = default;
    Json(std::nullptr_t) {}
    Json(bool b) : kind_(Kind::Bool), boolValue(b) {}
    Json(double d) : kind_(Kind::Number), numValue(d) {}
    Json(int v) : kind_(Kind::Number), numValue(v) {}
    Json(std::int64_t v)
        : kind_(Kind::Number), numValue(static_cast<double>(v))
    {}
    Json(std::uint64_t v)
        : kind_(Kind::Number), numValue(static_cast<double>(v))
    {}
    Json(const char *s) : kind_(Kind::String), strValue(s) {}
    Json(std::string s) : kind_(Kind::String), strValue(std::move(s)) {}

    /** Make an empty array / object (distinct from null). */
    static Json array();
    static Json object();

    Kind kind() const { return kind_; }
    bool isNull() const { return kind_ == Kind::Null; }
    bool isBool() const { return kind_ == Kind::Bool; }
    bool isNumber() const { return kind_ == Kind::Number; }
    bool isString() const { return kind_ == Kind::String; }
    bool isArray() const { return kind_ == Kind::Array; }
    bool isObject() const { return kind_ == Kind::Object; }

    /** Typed accessors; fatal on kind mismatch. */
    bool asBool() const;
    double asNumber() const;
    std::uint64_t asUint() const;
    const std::string &asString() const;

    /** Array access. */
    void push(Json v);
    std::size_t size() const;
    const Json &at(std::size_t i) const;

    /** Object access. `set` replaces an existing key in place. */
    void set(const std::string &key, Json v);
    bool has(const std::string &key) const;
    /** Fatal if the key is absent. */
    const Json &at(const std::string &key) const;
    /** Null reference if the key is absent. */
    const Json *find(const std::string &key) const;
    const std::vector<std::pair<std::string, Json>> &items() const;

    /** Serialize. `indent` < 0 means compact single-line output. */
    std::string dump(int indent = -1) const;

    /**
     * Parse a complete JSON document. On malformed input returns null
     * and, when `error` is given, stores a description with the byte
     * offset. Arrays and objects nested more than 512 deep fail with
     * "nesting too deep"; numbers beyond the double range fail with
     * "number out of range".
     */
    static Json parse(const std::string &text,
                      std::string *error = nullptr);

    bool operator==(const Json &o) const;

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    Kind kind_ = Kind::Null;
    bool boolValue = false;
    double numValue = 0.0;
    std::string strValue;
    std::vector<Json> arr;
    std::vector<std::pair<std::string, Json>> obj;
};

/** Escape a string for embedding in JSON (adds surrounding quotes). */
std::string jsonQuote(const std::string &s);

} // namespace aosd

#endif // AOSD_SIM_JSON_HH
