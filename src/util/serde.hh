/**
 * @file
 * Serialisation layer shared by the tools, the experiment engine and
 * the benchmark harnesses:
 *
 *  - JsonValue: a small JSON document model (null / bool / number /
 *    string / array / object) with object member order preserved, so
 *    an emitted document is stable and diffs cleanly;
 *  - a recursive-descent parser with line/column diagnostics and a
 *    pretty-printing emitter whose doubles round-trip exactly
 *    (shortest decimal form that parses back bit-identically);
 *  - SpecReader: typed field binding for declarative configuration
 *    (ExperimentSpec et al.) that accumulates dotted-path
 *    diagnostics ("matrix.requests: expected number, got string")
 *    instead of dying on the first problem;
 *  - CliFlags: the --flag value command-line parser of rtmsim, with
 *    uniform error handling for stray tokens, missing values and
 *    unknown flags.
 */

#ifndef RTM_UTIL_SERDE_HH
#define RTM_UTIL_SERDE_HH

#include <cstdint>
#include <initializer_list>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace rtm
{

/** JSON document type tags. */
enum class JsonType
{
    Null,
    Bool,
    Number,
    String,
    Array,
    Object
};

/** Human-readable type-tag name ("number", "object", ...). */
const char *jsonTypeName(JsonType type);

/**
 * One JSON document node. Numbers are stored as double (integers up
 * to 2^53 are exact, which covers every config field in this repo);
 * object members keep insertion order so emission is deterministic.
 */
class JsonValue
{
  public:
    JsonValue() = default;
    /*implicit*/ JsonValue(bool b) : type_(JsonType::Bool), bool_(b)
    {
    }
    /*implicit*/ JsonValue(double n)
        : type_(JsonType::Number), num_(n)
    {
    }
    /*implicit*/ JsonValue(int n)
        : type_(JsonType::Number), num_(static_cast<double>(n))
    {
    }
    /*implicit*/ JsonValue(uint64_t n)
        : type_(JsonType::Number), num_(static_cast<double>(n))
    {
    }
    /*implicit*/ JsonValue(const char *s)
        : type_(JsonType::String), str_(s)
    {
    }
    /*implicit*/ JsonValue(std::string s)
        : type_(JsonType::String), str_(std::move(s))
    {
    }

    /** Fresh empty array / object (distinct from null). */
    static JsonValue array();
    static JsonValue object();

    JsonType type() const { return type_; }
    bool isNull() const { return type_ == JsonType::Null; }
    bool isBool() const { return type_ == JsonType::Bool; }
    bool isNumber() const { return type_ == JsonType::Number; }
    bool isString() const { return type_ == JsonType::String; }
    bool isArray() const { return type_ == JsonType::Array; }
    bool isObject() const { return type_ == JsonType::Object; }

    bool asBool(bool fallback = false) const;
    double asDouble(double fallback = 0.0) const;
    uint64_t asU64(uint64_t fallback = 0) const;
    int asInt(int fallback = 0) const;
    const std::string &asString() const { return str_; }

    // Array access.
    size_t size() const { return items_.size(); }
    const JsonValue &at(size_t i) const { return items_[i]; }
    void push(JsonValue v) { items_.push_back(std::move(v)); }
    const std::vector<JsonValue> &items() const { return items_; }

    // Object access (linear scan; spec objects are small).
    const JsonValue *find(const std::string &key) const;
    /** Insert-or-overwrite, preserving first-insertion order. */
    JsonValue &set(const std::string &key, JsonValue v);
    const std::vector<std::pair<std::string, JsonValue>> &
    members() const
    {
        return members_;
    }

    /**
     * Emit the document. indent > 0 pretty-prints with that many
     * spaces per level; indent == 0 emits one compact line.
     */
    std::string dump(int indent = 2) const;

    /**
     * Parse one JSON document (the whole string must be consumed).
     * On failure returns false and, when `error` is non-null, stores
     * a diagnostic with 1-based line:column of the offending token.
     */
    static bool parse(const std::string &text, JsonValue *out,
                      std::string *error);

    /** Structural equality (exact double comparison). */
    bool operator==(const JsonValue &other) const;
    bool operator!=(const JsonValue &other) const
    {
        return !(*this == other);
    }

  private:
    void dumpTo(std::string &out, int indent, int depth) const;

    JsonType type_ = JsonType::Null;
    bool bool_ = false;
    double num_ = 0.0;
    std::string str_;
    std::vector<JsonValue> items_;
    std::vector<std::pair<std::string, JsonValue>> members_;
};

/** Append `s` as a quoted, escaped JSON string literal. */
void appendJsonString(std::string &out, const std::string &s);

/** Shortest decimal form of `v` that strtod parses back exactly. */
std::string jsonNumberToString(double v);

/** Read a whole file; false (with diagnostic) on I/O error. */
bool readTextFile(const std::string &path, std::string *out,
                  std::string *error);

/** Parse a JSON file; diagnostics carry the path. */
bool loadJsonFile(const std::string &path, JsonValue *out,
                  std::string *error);

/**
 * Crash-consistent whole-file write: the text goes to `path.tmp`,
 * is flushed and stream-state checked, and only then renamed over
 * `path` — so readers (and a process killed mid-write) see either
 * the old complete file or the new complete file, never a torn one.
 * A failure at any step (including a full disk surfacing at fclose)
 * returns false with an errno-carrying diagnostic and removes the
 * temporary; the destination is left untouched.
 */
bool saveTextFileAtomic(const std::string &path,
                        const std::string &text,
                        std::string *error = nullptr);

/**
 * Write `value.dump(indent)` atomically (saveTextFileAtomic); false
 * with a diagnostic on any I/O error.
 */
bool saveJsonFile(const std::string &path, const JsonValue &value,
                  int indent = 2, std::string *error = nullptr);

/**
 * Typed field binding over a parsed JSON object.
 *
 * Every read_* call looks up a key and, when present, checks the
 * type and stores the value; a missing key leaves the bound default
 * untouched. Type mismatches and unknown keys append one diagnostic
 * line each to the shared error string, prefixed with the reader's
 * dotted path, so a malformed spec reports *all* its problems in one
 * pass. Integer reads reject fractions and values outside the
 * target type (u64: [0, 2^53], the exact range of a JSON double).
 */
class SpecReader
{
  public:
    /**
     * @param value object to read (a non-object appends a diagnostic
     *              immediately and every subsequent read no-ops)
     * @param path  dotted prefix for diagnostics ("matrix")
     * @param diag  shared diagnostic accumulator (never null)
     */
    SpecReader(const JsonValue &value, std::string path,
               std::string *diag);

    bool has(const char *key) const;

    void readBool(const char *key, bool *out);
    void readU64(const char *key, uint64_t *out);
    void readInt(const char *key, int *out);
    void readDouble(const char *key, double *out);
    void readString(const char *key, std::string *out);

    /**
     * Child of the wanted composite type, or null (with a
     * diagnostic when present-but-mistyped).
     */
    const JsonValue *child(const char *key, JsonType want) const;

    /** The member under `key` of any type, or null when absent. */
    const JsonValue *field(const char *key) const;

    /** Reader over a child value, at path `<path>.<key>`. */
    SpecReader sub(const std::string &key,
                   const JsonValue &value) const;

    /**
     * Append an "unknown field" diagnostic for every member neither
     * looked up through this reader nor listed in `known` — catches
     * typos like "reqests" that would otherwise be silently ignored.
     */
    void rejectUnknownKeys(
        std::initializer_list<const char *> known = {}) const;

    /** Append a custom diagnostic under this reader's path. */
    void fail(const std::string &key, const std::string &msg) const;

    /** True while no diagnostic has been appended (by anyone). */
    bool ok() const { return diag_->empty(); }

  private:
    bool integral(const char *key, const JsonValue *v, double lo,
                  double hi, const char *range) const;

    const JsonValue &value_;
    std::string path_;
    std::string *diag_;
    bool usable_ = false;
    /** Per member: looked up (rejectUnknownKeys spares it). */
    mutable std::vector<bool> seen_;
};

/**
 * Shared `--flag value` command-line parser.
 *
 * The grammar all three tools historically used: flags come in
 * pairs, every flag token starts with "--". This parser adds the
 * uniform error handling the tools lacked: a non-flag token, a flag
 * with no value, and (when `allowed` is non-empty) an unknown flag
 * are each reported with the offending token. parseOrExit prints the
 * diagnostic to stderr and exits with status 2, matching the tools'
 * historical behaviour.
 */
class CliFlags
{
  public:
    /**
     * Parse argv[first..argc). Empty `allowed` accepts any flag
     * name. Returns false with a one-line diagnostic on error.
     */
    static bool tryParse(int argc, char **argv, int first,
                         const std::vector<std::string> &allowed,
                         CliFlags *out, std::string *error);

    /** tryParse, printing the diagnostic and exiting 2 on error. */
    static CliFlags
    parseOrExit(int argc, char **argv, int first,
                const std::vector<std::string> &allowed);

    bool has(const std::string &name) const;
    std::string get(const std::string &name,
                    const std::string &fallback) const;

    /**
     * Typed getters: the whole value must parse (no sign for
     * getU64, in range for getInt, finite for getDouble); otherwise
     * they print the flag and its value and exit 2.
     */
    uint64_t getU64(const std::string &name,
                    uint64_t fallback) const;
    int getInt(const std::string &name, int fallback) const;
    double getDouble(const std::string &name,
                     double fallback) const;

    const std::map<std::string, std::string> &values() const
    {
        return values_;
    }

  private:
    std::map<std::string, std::string> values_;
};

/** Split a comma-separated list, dropping empty segments. */
std::vector<std::string> splitCsv(const std::string &csv);

} // namespace rtm

#endif // RTM_UTIL_SERDE_HH
