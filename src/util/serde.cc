#include "serde.hh"

#include <cerrno>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <limits>
#include <type_traits>

namespace rtm
{

const char *
jsonTypeName(JsonType type)
{
    switch (type) {
    case JsonType::Null:
        return "null";
    case JsonType::Bool:
        return "bool";
    case JsonType::Number:
        return "number";
    case JsonType::String:
        return "string";
    case JsonType::Array:
        return "array";
    case JsonType::Object:
        return "object";
    }
    return "?";
}

JsonValue
JsonValue::array()
{
    JsonValue v;
    v.type_ = JsonType::Array;
    return v;
}

JsonValue
JsonValue::object()
{
    JsonValue v;
    v.type_ = JsonType::Object;
    return v;
}

bool
JsonValue::asBool(bool fallback) const
{
    return isBool() ? bool_ : fallback;
}

double
JsonValue::asDouble(double fallback) const
{
    return isNumber() ? num_ : fallback;
}

uint64_t
JsonValue::asU64(uint64_t fallback) const
{
    if (!isNumber() || num_ < 0.0)
        return fallback;
    return static_cast<uint64_t>(num_);
}

int
JsonValue::asInt(int fallback) const
{
    return isNumber() ? static_cast<int>(num_) : fallback;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    for (const auto &kv : members_)
        if (kv.first == key)
            return &kv.second;
    return nullptr;
}

JsonValue &
JsonValue::set(const std::string &key, JsonValue v)
{
    type_ = JsonType::Object;
    for (auto &kv : members_) {
        if (kv.first == key) {
            kv.second = std::move(v);
            return kv.second;
        }
    }
    members_.emplace_back(key, std::move(v));
    return members_.back().second;
}

bool
JsonValue::operator==(const JsonValue &other) const
{
    if (type_ != other.type_)
        return false;
    switch (type_) {
    case JsonType::Null:
        return true;
    case JsonType::Bool:
        return bool_ == other.bool_;
    case JsonType::Number:
        return num_ == other.num_;
    case JsonType::String:
        return str_ == other.str_;
    case JsonType::Array:
        return items_ == other.items_;
    case JsonType::Object:
        return members_ == other.members_;
    }
    return false;
}

// --- emission --------------------------------------------------------

std::string
jsonNumberToString(double v)
{
    if (!std::isfinite(v)) // JSON has no inf/nan; emit null-ish zero
        return "0";
    // Integers (the common case for config fields) print exactly.
    if (v == std::floor(v) && std::fabs(v) < 1e15) {
        char buf[32];
        std::snprintf(buf, sizeof(buf), "%.0f", v);
        return buf;
    }
    // Shortest %.*g form that strtod round-trips bit-identically.
    char buf[40];
    for (int prec = 15; prec <= 17; ++prec) {
        std::snprintf(buf, sizeof(buf), "%.*g", prec, v);
        if (std::strtod(buf, nullptr) == v)
            break;
    }
    return buf;
}

void
appendJsonString(std::string &out, const std::string &s)
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

namespace
{

void
appendNewlineIndent(std::string &out, int indent, int depth)
{
    if (indent <= 0)
        return;
    out += '\n';
    out.append(static_cast<size_t>(indent) *
                   static_cast<size_t>(depth),
               ' ');
}

} // namespace

void
JsonValue::dumpTo(std::string &out, int indent, int depth) const
{
    switch (type_) {
    case JsonType::Null:
        out += "null";
        return;
    case JsonType::Bool:
        out += bool_ ? "true" : "false";
        return;
    case JsonType::Number:
        out += jsonNumberToString(num_);
        return;
    case JsonType::String:
        appendJsonString(out, str_);
        return;
    case JsonType::Array: {
        if (items_.empty()) {
            out += "[]";
            return;
        }
        out += '[';
        for (size_t i = 0; i < items_.size(); ++i) {
            if (i)
                out += indent > 0 ? "," : ", ";
            appendNewlineIndent(out, indent, depth + 1);
            items_[i].dumpTo(out, indent, depth + 1);
        }
        appendNewlineIndent(out, indent, depth);
        out += ']';
        return;
    }
    case JsonType::Object: {
        if (members_.empty()) {
            out += "{}";
            return;
        }
        out += '{';
        for (size_t i = 0; i < members_.size(); ++i) {
            if (i)
                out += indent > 0 ? "," : ", ";
            appendNewlineIndent(out, indent, depth + 1);
            appendJsonString(out, members_[i].first);
            out += ": ";
            members_[i].second.dumpTo(out, indent, depth + 1);
        }
        appendNewlineIndent(out, indent, depth);
        out += '}';
        return;
    }
    }
}

std::string
JsonValue::dump(int indent) const
{
    std::string out;
    dumpTo(out, indent, 0);
    if (indent > 0)
        out += '\n';
    return out;
}

// --- parsing ---------------------------------------------------------

namespace
{

class JsonParser
{
  public:
    JsonParser(const std::string &text, std::string *error)
        : text_(text), error_(error)
    {
    }

    bool parseDocument(JsonValue *out)
    {
        skipWs();
        if (!parseValue(out))
            return false;
        skipWs();
        if (pos_ != text_.size())
            return fail("trailing characters after JSON document");
        return true;
    }

  private:
    bool fail(const std::string &msg)
    {
        if (error_ && error_->empty()) {
            size_t line = 1, col = 1;
            for (size_t i = 0; i < pos_ && i < text_.size(); ++i) {
                if (text_[i] == '\n') {
                    ++line;
                    col = 1;
                } else {
                    ++col;
                }
            }
            *error_ = "JSON parse error at line " +
                      std::to_string(line) + ", column " +
                      std::to_string(col) + ": " + msg;
        }
        return false;
    }

    void skipWs()
    {
        while (pos_ < text_.size()) {
            char c = text_[pos_];
            if (c == ' ' || c == '\t' || c == '\n' || c == '\r')
                ++pos_;
            else
                break;
        }
    }

    bool literal(const char *word)
    {
        size_t len = std::strlen(word);
        if (text_.compare(pos_, len, word) != 0)
            return fail(std::string("invalid token; expected '") +
                        word + "'");
        pos_ += len;
        return true;
    }

    bool parseString(std::string *out)
    {
        if (pos_ >= text_.size() || text_[pos_] != '"')
            return fail("expected string");
        ++pos_;
        out->clear();
        while (pos_ < text_.size()) {
            char c = text_[pos_++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (pos_ >= text_.size())
                    break;
                char esc = text_[pos_++];
                switch (esc) {
                case '"':
                    *out += '"';
                    break;
                case '\\':
                    *out += '\\';
                    break;
                case '/':
                    *out += '/';
                    break;
                case 'n':
                    *out += '\n';
                    break;
                case 't':
                    *out += '\t';
                    break;
                case 'r':
                    *out += '\r';
                    break;
                case 'b':
                    *out += '\b';
                    break;
                case 'f':
                    *out += '\f';
                    break;
                case 'u': {
                    if (pos_ + 4 > text_.size())
                        return fail("truncated \\u escape");
                    unsigned code = 0;
                    for (int i = 0; i < 4; ++i) {
                        char h = text_[pos_++];
                        code <<= 4;
                        if (h >= '0' && h <= '9')
                            code |= static_cast<unsigned>(h - '0');
                        else if (h >= 'a' && h <= 'f')
                            code |=
                                static_cast<unsigned>(h - 'a' + 10);
                        else if (h >= 'A' && h <= 'F')
                            code |=
                                static_cast<unsigned>(h - 'A' + 10);
                        else
                            return fail("bad \\u escape digit");
                    }
                    // Minimal UTF-8 encoding (no surrogate pairs —
                    // config files are ASCII in practice).
                    if (code < 0x80) {
                        *out += static_cast<char>(code);
                    } else if (code < 0x800) {
                        *out +=
                            static_cast<char>(0xc0 | (code >> 6));
                        *out +=
                            static_cast<char>(0x80 | (code & 0x3f));
                    } else {
                        *out +=
                            static_cast<char>(0xe0 | (code >> 12));
                        *out += static_cast<char>(
                            0x80 | ((code >> 6) & 0x3f));
                        *out +=
                            static_cast<char>(0x80 | (code & 0x3f));
                    }
                    break;
                }
                default:
                    return fail("unknown escape sequence");
                }
            } else {
                *out += c;
            }
        }
        return fail("unterminated string");
    }

    bool parseNumber(JsonValue *out)
    {
        const char *start = text_.c_str() + pos_;
        char *end = nullptr;
        double v = std::strtod(start, &end);
        if (end == start)
            return fail("expected number");
        pos_ += static_cast<size_t>(end - start);
        *out = JsonValue(v);
        return true;
    }

    bool parseValue(JsonValue *out)
    {
        if (pos_ >= text_.size())
            return fail("unexpected end of input");
        char c = text_[pos_];
        switch (c) {
        case '{': {
            ++pos_;
            *out = JsonValue::object();
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == '}') {
                ++pos_;
                return true;
            }
            while (true) {
                skipWs();
                std::string key;
                if (!parseString(&key))
                    return false;
                skipWs();
                if (pos_ >= text_.size() || text_[pos_] != ':')
                    return fail("expected ':' after object key");
                ++pos_;
                skipWs();
                JsonValue member;
                if (!parseValue(&member))
                    return false;
                if (out->find(key))
                    return fail("duplicate object key \"" + key +
                                "\"");
                out->set(key, std::move(member));
                skipWs();
                if (pos_ >= text_.size())
                    return fail("unterminated object");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == '}') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or '}' in object");
            }
        }
        case '[': {
            ++pos_;
            *out = JsonValue::array();
            skipWs();
            if (pos_ < text_.size() && text_[pos_] == ']') {
                ++pos_;
                return true;
            }
            while (true) {
                skipWs();
                JsonValue item;
                if (!parseValue(&item))
                    return false;
                out->push(std::move(item));
                skipWs();
                if (pos_ >= text_.size())
                    return fail("unterminated array");
                if (text_[pos_] == ',') {
                    ++pos_;
                    continue;
                }
                if (text_[pos_] == ']') {
                    ++pos_;
                    return true;
                }
                return fail("expected ',' or ']' in array");
            }
        }
        case '"': {
            std::string s;
            if (!parseString(&s))
                return false;
            *out = JsonValue(std::move(s));
            return true;
        }
        case 't':
            if (!literal("true"))
                return false;
            *out = JsonValue(true);
            return true;
        case 'f':
            if (!literal("false"))
                return false;
            *out = JsonValue(false);
            return true;
        case 'n':
            if (!literal("null"))
                return false;
            *out = JsonValue();
            return true;
        default:
            return parseNumber(out);
        }
    }

    const std::string &text_;
    std::string *error_;
    size_t pos_ = 0;
};

} // namespace

bool
JsonValue::parse(const std::string &text, JsonValue *out,
                 std::string *error)
{
    if (error)
        error->clear();
    JsonParser parser(text, error);
    return parser.parseDocument(out);
}

bool
readTextFile(const std::string &path, std::string *out,
             std::string *error)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f) {
        if (error)
            *error = "cannot open '" + path + "'";
        return false;
    }
    out->clear();
    char buf[4096];
    size_t n;
    while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
        out->append(buf, n);
    // fread returns 0 for EOF *and* for I/O errors; without this
    // check a failing disk would read as an empty (or truncated)
    // file.
    const bool read_error = std::ferror(f) != 0;
    std::fclose(f);
    if (read_error) {
        if (error)
            *error = "I/O error reading '" + path + "'";
        return false;
    }
    return true;
}

bool
loadJsonFile(const std::string &path, JsonValue *out,
             std::string *error)
{
    std::string text;
    if (!readTextFile(path, &text, error))
        return false;
    std::string parse_error;
    if (!JsonValue::parse(text, out, &parse_error)) {
        if (error)
            *error = path + ": " + parse_error;
        return false;
    }
    return true;
}

bool
saveTextFileAtomic(const std::string &path,
                   const std::string &text, std::string *error)
{
    const std::string tmp = path + ".tmp";
    auto fail = [&](const char *what) {
        if (error)
            *error = std::string(what) + " '" + tmp +
                     "': " + std::strerror(errno);
        std::remove(tmp.c_str());
        return false;
    };
    std::FILE *f = std::fopen(tmp.c_str(), "w");
    if (!f) {
        if (error)
            *error = "cannot create '" + tmp +
                     "': " + std::strerror(errno);
        return false;
    }
    const size_t written =
        std::fwrite(text.data(), 1, text.size(), f);
    if (written != text.size() || std::fflush(f) != 0 ||
        std::ferror(f)) {
        std::fclose(f);
        return fail("cannot write");
    }
    if (std::fclose(f) != 0)
        return fail("cannot write");
    if (std::rename(tmp.c_str(), path.c_str()) != 0) {
        if (error)
            *error = "cannot rename '" + tmp + "' to '" + path +
                     "': " + std::strerror(errno);
        std::remove(tmp.c_str());
        return false;
    }
    return true;
}

bool
saveJsonFile(const std::string &path, const JsonValue &value,
             int indent, std::string *error)
{
    return saveTextFileAtomic(path, value.dump(indent), error);
}

// --- SpecReader ------------------------------------------------------

SpecReader::SpecReader(const JsonValue &value, std::string path,
                       std::string *diag)
    : value_(value), path_(std::move(path)), diag_(diag)
{
    if (value_.isObject()) {
        usable_ = true;
        seen_.assign(value_.members().size(), false);
    } else {
        fail("", std::string("expected object, got ") +
                     jsonTypeName(value_.type()));
    }
}

void
SpecReader::fail(const std::string &key,
                 const std::string &msg) const
{
    if (!diag_->empty())
        *diag_ += '\n';
    *diag_ += path_;
    if (!key.empty()) {
        if (!path_.empty())
            *diag_ += '.';
        *diag_ += key;
    }
    *diag_ += ": " + msg;
}

bool
SpecReader::has(const char *key) const
{
    return usable_ && value_.find(key) != nullptr;
}

const JsonValue *
SpecReader::field(const char *key) const
{
    if (!usable_)
        return nullptr;
    const auto &members = value_.members();
    for (size_t i = 0; i < members.size(); ++i) {
        if (members[i].first == key) {
            seen_[i] = true;
            return &members[i].second;
        }
    }
    return nullptr;
}

bool
SpecReader::integral(const char *key, const JsonValue *v, double lo,
                     double hi, const char *range) const
{
    if (!v)
        return false;
    const double d = v->asDouble();
    if (d != std::floor(d)) {
        fail(key, "expected an integer, got " + jsonNumberToString(d));
        return false;
    }
    if (d < lo || d > hi) {
        fail(key, std::string("out of range ") + range + ": " +
                      jsonNumberToString(d));
        return false;
    }
    return true;
}

void
SpecReader::readBool(const char *key, bool *out)
{
    if (const JsonValue *v = child(key, JsonType::Bool))
        *out = v->asBool();
}

void
SpecReader::readU64(const char *key, uint64_t *out)
{
    const JsonValue *v = child(key, JsonType::Number);
    if (integral(key, v, 0.0, 9007199254740992.0, "[0, 2^53]"))
        *out = static_cast<uint64_t>(v->asDouble());
}

void
SpecReader::readInt(const char *key, int *out)
{
    const JsonValue *v = child(key, JsonType::Number);
    if (integral(key, v, std::numeric_limits<int>::min(),
                 std::numeric_limits<int>::max(), "for int"))
        *out = static_cast<int>(v->asDouble());
}

void
SpecReader::readDouble(const char *key, double *out)
{
    if (const JsonValue *v = child(key, JsonType::Number))
        *out = v->asDouble();
}

void
SpecReader::readString(const char *key, std::string *out)
{
    if (const JsonValue *v = child(key, JsonType::String))
        *out = v->asString();
}

const JsonValue *
SpecReader::child(const char *key, JsonType want) const
{
    const JsonValue *v = field(key);
    if (v && v->type() != want) {
        fail(key, std::string("expected ") + jsonTypeName(want) +
                      ", got " + jsonTypeName(v->type()));
        return nullptr;
    }
    return v;
}

SpecReader
SpecReader::sub(const std::string &key, const JsonValue &value) const
{
    return SpecReader(value, path_.empty() ? key : path_ + "." + key,
                      diag_);
}

void
SpecReader::rejectUnknownKeys(
    std::initializer_list<const char *> known) const
{
    if (!usable_)
        return;
    const auto &members = value_.members();
    for (size_t i = 0; i < members.size(); ++i) {
        bool found = seen_[i];
        for (const char *k : known)
            found = found || members[i].first == k;
        if (!found)
            fail(members[i].first, "unknown field");
    }
}

// --- CliFlags --------------------------------------------------------

bool
CliFlags::tryParse(int argc, char **argv, int first,
                   const std::vector<std::string> &allowed,
                   CliFlags *out, std::string *error)
{
    out->values_.clear();
    for (int i = first; i < argc; ++i) {
        if (std::strncmp(argv[i], "--", 2) != 0) {
            if (error)
                *error = std::string("expected --flag, got '") +
                         argv[i] + "'";
            return false;
        }
        std::string name = argv[i] + 2;
        if (!allowed.empty()) {
            bool known = false;
            for (const std::string &a : allowed)
                if (a == name) {
                    known = true;
                    break;
                }
            if (!known) {
                if (error) {
                    *error = "unknown flag '--" + name + "' (known:";
                    for (const std::string &a : allowed)
                        *error += " --" + a;
                    *error += ")";
                }
                return false;
            }
        }
        if (i + 1 >= argc) {
            if (error)
                *error = "missing value for '--" + name + "'";
            return false;
        }
        out->values_[name] = argv[++i];
    }
    return true;
}

CliFlags
CliFlags::parseOrExit(int argc, char **argv, int first,
                      const std::vector<std::string> &allowed)
{
    CliFlags flags;
    std::string error;
    if (!tryParse(argc, argv, first, allowed, &flags, &error)) {
        std::fprintf(stderr, "%s\n", error.c_str());
        std::exit(2);
    }
    return flags;
}

bool
CliFlags::has(const std::string &name) const
{
    return values_.count(name) != 0;
}

std::string
CliFlags::get(const std::string &name,
              const std::string &fallback) const
{
    auto it = values_.find(name);
    return it == values_.end() ? fallback : it->second;
}

namespace
{

/**
 * Parse the whole of a flag's value as a T, or exit 2 naming the
 * flag and the value. from_chars takes no leading space or '+', and
 * no '-' for unsigned types.
 */
template <typename T>
T
flagNumberOrExit(const std::string &name, const std::string &value,
                 const char *expected)
{
    T out{};
    const char *end = value.data() + value.size();
    auto [ptr, ec] = std::from_chars(value.data(), end, out);
    bool ok = ec == std::errc() && ptr == end;
    if constexpr (std::is_floating_point_v<T>)
        ok = ok && std::isfinite(out);
    if (!ok) {
        std::fprintf(stderr,
                     "invalid value '%s' for '--%s' (expected %s)\n",
                     value.c_str(), name.c_str(), expected);
        std::exit(2);
    }
    return out;
}

} // anonymous namespace

uint64_t
CliFlags::getU64(const std::string &name, uint64_t fallback) const
{
    auto it = values_.find(name);
    return it == values_.end()
               ? fallback
               : flagNumberOrExit<uint64_t>(name, it->second,
                                            "an unsigned integer");
}

int
CliFlags::getInt(const std::string &name, int fallback) const
{
    auto it = values_.find(name);
    return it == values_.end()
               ? fallback
               : flagNumberOrExit<int>(name, it->second,
                                       "an integer");
}

double
CliFlags::getDouble(const std::string &name, double fallback) const
{
    auto it = values_.find(name);
    return it == values_.end()
               ? fallback
               : flagNumberOrExit<double>(name, it->second,
                                          "a finite number");
}

std::vector<std::string>
splitCsv(const std::string &csv)
{
    std::vector<std::string> out;
    size_t start = 0;
    while (start <= csv.size()) {
        size_t comma = csv.find(',', start);
        if (comma == std::string::npos)
            comma = csv.size();
        if (comma > start)
            out.push_back(csv.substr(start, comma - start));
        start = comma + 1;
    }
    return out;
}

} // namespace rtm
