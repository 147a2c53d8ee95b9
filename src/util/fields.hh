/**
 * @file
 * Declare-once field lists for the structs written to JSON.
 *
 * A serialised struct T names each member once, next to its
 * definition, in an overload
 *
 *     template <class V, FieldsOf<T>... S>
 *     void forEachField(V &&v, S &...s);
 *
 * whose body calls `v("key", s.member...)` per member in emission
 * order. `s` is a pack so one list serves visitors over one object
 * (emit, parse, telemetry) and over two (equality, merge). From it:
 *
 *  - toJson / writeFields emit JSON;
 *  - readFields parses through a SpecReader (dotted-path
 *    diagnostics, unknown keys rejected), calling the struct's
 *    `finishRead(SpecReader &, T &)` hook when it declares one;
 *  - fromJson is the strict checkpoint reload;
 *  - FieldsEqual compares the listed members, FieldSum adds them.
 *
 * Enums are written as tokens from one `enumTokens(E)` table per
 * enum (found by ADL). A member's valid range is declared with it as
 * InRange{m, lo[, hi]}, either end given as Exclusive{b} to exclude
 * it: readFields refuses a present key outside the range with
 * `<dotted.path>: must be ...`, and every other visitor sees `m`.
 * The wrappers below keep older documents' bytes: EmitOnly{x}
 * (derived, never read back), NullIfInf{m} (+inf as null),
 * PresentIf{flag, m} (written while flag is set; reading the key
 * sets it), HandParsed{m} (read by the finishRead hook), SubObject{fn}
 * (a nested object over members of the enclosing struct), and
 * `if (v.emitWhen(cond...))` for a group of keys written only when
 * `cond` holds.
 */

#ifndef RTM_UTIL_FIELDS_HH
#define RTM_UTIL_FIELDS_HH

#include <array>
#include <cmath>
#include <concepts>
#include <limits>
#include <string>
#include <type_traits>
#include <vector>

#include "util/serde.hh"
#include "util/stats.hh"

namespace rtm
{

/** One row of an enum's token table; the first row per value is
 *  the one emitted, later rows are parse-only aliases. */
template <class E>
struct EnumToken
{
    E value;
    const char *token;
};

template <class E>
const char *
enumToken(E value)
{
    for (const EnumToken<E> &row : enumTokens(value))
        if (row.value == value)
            return row.token;
    return "?";
}

/** False (out untouched) when `token` names no value. */
template <class E>
bool
enumFromToken(const std::string &token, E *out)
{
    for (const EnumToken<E> &row : enumTokens(E{})) {
        if (token == row.token) {
            *out = row.value;
            return true;
        }
    }
    return false;
}

template <class S, class T>
concept FieldsOf = std::same_as<std::remove_const_t<S>, T>;

template <class T>
concept HasFields = requires(int &v, T &obj) { forEachField(v, obj); };

template <class T>
struct EmitOnly
{
    T value;
};

template <class D>
struct NullIfInf
{
    D &value;
};

template <class B, class T>
struct PresentIf
{
    B &flag;
    T &value;
};

template <class T>
struct HandParsed
{
    T &value;
};

template <class F>
struct SubObject
{
    F fn;
};

/** An excluded end of an InRange: InRange{m, Exclusive{0.0}}. */
template <class B>
struct Exclusive
{
    B bound;
};

/**
 * A member with its valid range [lo, hi]; an end given as
 * Exclusive{b} is excluded, and an omitted hi is unbounded.
 */
template <class T>
struct InRange
{
    using Value = std::remove_const_t<T>;
    static constexpr Value kUnbounded =
        std::numeric_limits<Value>::has_infinity
            ? std::numeric_limits<Value>::infinity()
            : std::numeric_limits<Value>::max();

    struct End
    {
        End(Value b) : bound(b) {}
        template <class B>
        End(Exclusive<B> e) : bound(static_cast<Value>(e.bound)), open(true)
        {
        }
        Value bound;
        bool open = false;
    };

    T &value;
    End lo;
    End hi = kUnbounded;

    bool admits(Value v) const
    {
        return (lo.open ? v > lo.bound : v >= lo.bound) &&
               (hi.open ? v < hi.bound : v <= hi.bound);
    }

    /** The range as diagnostics state it: ">= 1", "in [0, 1)". */
    std::string text() const
    {
        auto num = [](Value b) {
            return jsonNumberToString(static_cast<double>(b));
        };
        if (hi.bound == kUnbounded)
            return (lo.open ? "> " : ">= ") + num(lo.bound);
        return std::string("in ") + (lo.open ? "(" : "[") +
               num(lo.bound) + ", " + num(hi.bound) +
               (hi.open ? ")" : "]");
    }
};

template <class T, class... B>
InRange(T &, B...) -> InRange<T>;

// --- emission ---------------------------------------------------------

template <class T>
void writeFields(JsonValue &out, const T &obj);

/** A tally as [key, count] pairs in increasing key order. */
inline JsonValue
toJson(const IntTally &tally)
{
    JsonValue v = JsonValue::array();
    tally.forEachEntry([&v](int64_t key, uint64_t count) {
        JsonValue pair = JsonValue::array();
        pair.push(static_cast<double>(key));
        pair.push(count);
        v.push(std::move(pair));
    });
    return v;
}

/** A member value (or a whole listed struct) as JSON. */
template <class T>
JsonValue
toJson(const T &value)
{
    if constexpr (std::is_enum_v<T>) {
        return enumToken(value);
    } else if constexpr (HasFields<T>) {
        JsonValue v = JsonValue::object();
        writeFields(v, value);
        return v;
    } else if constexpr (std::is_unsigned_v<T> &&
                         !std::is_same_v<T, bool>) {
        return static_cast<uint64_t>(value);
    } else {
        return value;
    }
}

template <class T>
JsonValue
toJson(const std::vector<T> &items)
{
    JsonValue v = JsonValue::array();
    for (const T &item : items)
        v.push(toJson(item));
    return v;
}

class FieldWriter
{
  public:
    explicit FieldWriter(JsonValue &out) : out_(out) {}

    template <class T>
    void operator()(const char *key, const T &value)
    {
        out_.set(key, toJson(value));
    }
    template <class T>
    void operator()(const char *key, EmitOnly<T> f)
    {
        (*this)(key, f.value);
    }
    template <class D>
    void operator()(const char *key, NullIfInf<D> f)
    {
        out_.set(key, std::isfinite(f.value) ? JsonValue(f.value)
                                             : JsonValue());
    }
    template <class B, class T>
    void operator()(const char *key, PresentIf<B, T> f)
    {
        if (f.flag)
            (*this)(key, f.value);
    }
    template <class T>
    void operator()(const char *key, HandParsed<T> f)
    {
        (*this)(key, f.value);
    }
    template <class T>
    void operator()(const char *key, InRange<T> f)
    {
        (*this)(key, f.value);
    }
    template <class F>
    void operator()(const char *key, SubObject<F> sub)
    {
        JsonValue v = JsonValue::object();
        FieldWriter writer(v);
        sub.fn(writer);
        out_.set(key, std::move(v));
    }
    bool emitWhen(bool cond) { return cond; }

  private:
    JsonValue &out_;
};

/** Append obj's fields to `out`; keys already present keep their
 *  position. */
template <class T>
void
writeFields(JsonValue &out, const T &obj)
{
    FieldWriter writer(out);
    forEachField(writer, obj);
}

// --- parsing ----------------------------------------------------------

template <class T>
void readFields(SpecReader &r, T &obj);

/** Binds each field through a SpecReader; a missing key keeps the
 *  member's value. */
class FieldReader
{
  public:
    explicit FieldReader(SpecReader &r) : r_(r) {}

    template <class T>
    void operator()(const char *key, T &value)
    {
        if constexpr (std::is_same_v<T, bool>) {
            r_.readBool(key, &value);
        } else if constexpr (std::is_same_v<T, int>) {
            r_.readInt(key, &value);
        } else if constexpr (std::is_unsigned_v<T>) {
            uint64_t v = value;
            r_.readU64(key, &v);
            value = static_cast<T>(v);
        } else if constexpr (std::is_same_v<T, double>) {
            r_.readDouble(key, &value);
        } else if constexpr (std::is_same_v<T, std::string>) {
            r_.readString(key, &value);
        } else if constexpr (std::is_enum_v<T>) {
            std::string token = enumToken(value);
            r_.readString(key, &token);
            if (enumFromToken(token, &value))
                return;
            std::string known;
            for (const EnumToken<T> &row : enumTokens(value))
                known += (known.empty() ? "" : " | ") +
                         std::string(row.token);
            r_.fail(key, "unknown " + std::string(key) + " '" + token +
                             "' (" + known + ")");
        } else if constexpr (HasFields<T>) {
            if (const JsonValue *v = r_.child(key, JsonType::Object)) {
                SpecReader sub = r_.sub(key, *v);
                readFields(sub, value);
            }
        } else {
            static_assert(std::is_same_v<T, IntTally>);
            const JsonValue *v = r_.child(key, JsonType::Array);
            IntTally tally;
            for (size_t i = 0; v && i < v->size(); ++i) {
                const JsonValue &pair = v->at(i);
                if (!pair.isArray() || pair.size() != 2 ||
                    !pair.at(0).isNumber() || !pair.at(1).isNumber()) {
                    r_.fail(key, "expected [key, count] pairs");
                    return;
                }
                tally.add(static_cast<int64_t>(pair.at(0).asDouble()),
                          pair.at(1).asU64());
            }
            if (v)
                value = std::move(tally);
        }
    }
    template <class T>
    void operator()(const char *key, std::vector<T> &items)
    {
        const JsonValue *arr = r_.child(key, JsonType::Array);
        if (!arr)
            return;
        items.clear();
        for (size_t i = 0; i < arr->size(); ++i) {
            const JsonValue &item = arr->at(i);
            if constexpr (std::is_same_v<T, std::string>) {
                if (item.isString())
                    items.push_back(item.asString());
                else
                    r_.fail(key, std::string("expected string, got ") +
                                     jsonTypeName(item.type()));
            } else {
                SpecReader sub = r_.sub(
                    std::string(key) + "[" + std::to_string(i) + "]",
                    item);
                readFields(sub, items.emplace_back());
            }
        }
    }
    template <class T>
    void operator()(const char *key, EmitOnly<T>)
    {
        r_.field(key);
    }
    template <class D>
    void operator()(const char *key, NullIfInf<D> f)
    {
        const JsonValue *v = r_.field(key);
        if (v && v->isNull())
            f.value = std::numeric_limits<double>::infinity();
        else if (v)
            r_.readDouble(key, &f.value);
    }
    template <class B, class T>
    void operator()(const char *key, PresentIf<B, T> f)
    {
        f.flag = f.flag || r_.has(key);
        (*this)(key, f.value);
    }
    template <class T>
    void operator()(const char *, HandParsed<T>)
    {
    }
    /** A refused value leaves the member as it was. */
    template <class T>
    void operator()(const char *key, InRange<T> f)
    {
        T read = f.value;
        (*this)(key, read);
        if (f.admits(read))
            f.value = read;
        else if (r_.has(key))
            r_.fail(key, "must be " + f.text());
    }
    template <class F>
    void operator()(const char *key, SubObject<F> sub)
    {
        if (const JsonValue *v = r_.child(key, JsonType::Object)) {
            SpecReader r = r_.sub(key, *v);
            FieldReader reader(r);
            sub.fn(reader);
            r.rejectUnknownKeys();
        }
    }
    bool emitWhen(bool) { return true; }

  private:
    SpecReader &r_;
};

/** Read obj's fields, run its finishRead hook if any, then reject
 *  every key neither consumed. */
template <class T>
void
readFields(SpecReader &r, T &obj)
{
    FieldReader reader(r);
    forEachField(reader, obj);
    if constexpr (requires { finishRead(r, obj); })
        finishRead(r, obj);
    r.rejectUnknownKeys();
}

/**
 * Strict reload of a checkpointed object: false (*out untouched)
 * unless `doc` is an object whose keys are all listed and whose
 * present fields all have the right type and range. Missing keys
 * keep their defaults.
 */
template <class T>
bool
fromJson(const JsonValue &doc, T *out)
{
    std::string diag;
    SpecReader r(doc, "", &diag);
    T obj;
    readFields(r, obj);
    if (!diag.empty())
        return false;
    *out = std::move(obj);
    return true;
}

// --- two-object visitors ----------------------------------------------

/** Adds each listed field of the second object into the first. */
struct FieldSum
{
    template <class T>
    void operator()(const char *, T &sum, const T &add)
    {
        if constexpr (std::is_same_v<T, IntTally>)
            sum.merge(add);
        else
            sum += add;
    }
    bool emitWhen(bool, bool) { return true; }
};

/** Compares the listed fields of two objects; `mismatch` describes
 *  the first that differs (`key <a>, expected <b>`). */
struct FieldsEqual
{
    bool equal = true;
    std::string mismatch;

    template <class T>
    void operator()(const char *key, const T &a, const T &b)
    {
        if constexpr (HasFields<T>) {
            forEachField(*this, a, b);
        } else if (equal && !(a == b)) {
            equal = false;
            mismatch = std::string(key) + " " + toJson(a).dump(0) +
                       ", expected " + toJson(b).dump(0);
        }
    }
    template <class T>
    void operator()(const char *key, HandParsed<T> a, HandParsed<T> b)
    {
        (*this)(key, a.value, b.value);
    }
    template <class T>
    void operator()(const char *key, InRange<T> a, InRange<T> b)
    {
        (*this)(key, a.value, b.value);
    }
    template <class F>
    void operator()(const char *, SubObject<F> sub)
    {
        sub.fn(*this);
    }
};

} // namespace rtm

#endif // RTM_UTIL_FIELDS_HH
