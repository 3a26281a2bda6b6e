/**
 * @file
 * Minimal JSON value type with serializer and parser.
 *
 * The observability layer (the cycle tracer's chrome://tracing export
 * and tools/aosd_report's report.json) needs machine-readable output,
 * and the regression gate needs to read it back. This is a
 * deliberately small, dependency-free implementation: objects
 * preserve insertion order so emitted reports diff cleanly.
 *
 * A node is one 16-byte std::variant whose index is its Kind. Null,
 * bool and number sit inline; a string, array or object sits in a heap
 * box the node owns by value, so the numbers that make up most of a
 * large document pay 16 bytes each. A moved-from node is null. Numbers
 * are written as integers when whole and below 1e15, otherwise as the
 * shortest "%.{p}g" (std::to_chars general) that std::from_chars reads
 * back exactly; the parser reads them with std::from_chars in place.
 */

#ifndef AOSD_SIM_JSON_HH
#define AOSD_SIM_JSON_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <variant>
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
    Json(bool b) : node(b) {}
    Json(double d) : node(d) {}
    Json(int v) : node(static_cast<double>(v)) {}
    Json(std::int64_t v) : node(static_cast<double>(v)) {}
    Json(std::uint64_t v) : node(static_cast<double>(v)) {}
    Json(const char *s) : node(Box<std::string>(s)) {}
    Json(std::string s) : node(Box<std::string>(std::move(s))) {}

    Json(const Json &) = default;
    /** A move leaves the source null. */
    Json(Json &&o) noexcept : node(std::exchange(o.node, nullptr)) {}
    Json &
    operator=(Json o) noexcept
    {
        node.swap(o.node);
        return *this;
    }

    /** Make an empty array / object (distinct from null). */
    static Json array();
    static Json object();

    Kind kind() const { return static_cast<Kind>(node.index()); }
    bool isNull() const { return kind() == Kind::Null; }
    bool isBool() const { return kind() == Kind::Bool; }
    bool isNumber() const { return kind() == Kind::Number; }
    bool isString() const { return kind() == Kind::String; }
    bool isArray() const { return kind() == Kind::Array; }
    bool isObject() const { return kind() == Kind::Object; }

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

    bool operator==(const Json &o) const { return node == o.node; }

  private:
    /** Owns a heap T with value semantics (a copy deep-copies, ==
     *  compares contents). Never null: a node's moves reset the source. */
    template <class T>
    class Box
    {
      public:
        explicit Box(T v = T()) : p(std::make_unique<T>(std::move(v))) {}
        Box(const Box &o) : Box(*o.p) {}
        Box(Box &&) noexcept = default;
        Box &operator=(Box &&) noexcept = default;

        T &operator*() const { return *p; }
        bool operator==(const Box &o) const { return *p == *o.p; }

      private:
        std::unique_ptr<T> p;
    };
    using Array = std::vector<Json>;
    using Object = std::vector<std::pair<std::string, Json>>;
    class Parser;

    /** The boxed T if this node holds one, else null (shallow-const). */
    template <class T>
    T *
    get() const
    {
        const Box<T> *b = std::get_if<Box<T>>(&node);
        return b ? &**b : nullptr;
    }

    void dumpTo(std::string &out, int indent, int depth) const;

    /** Alternatives in Kind order. */
    std::variant<std::nullptr_t, bool, double, Box<std::string>,
                 Box<Array>, Box<Object>>
        node;
};

} // namespace aosd

#endif // AOSD_SIM_JSON_HH
