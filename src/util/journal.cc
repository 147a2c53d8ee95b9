#include "journal.hh"

#include <cerrno>
#include <cstring>

#include "util/hash.hh"

namespace rtm
{

namespace
{

/** 8 lowercase hex digits, fixed width (the frame prefix). */
std::string
crcHex(uint32_t crc)
{
    char buf[9];
    std::snprintf(buf, sizeof(buf), "%08x", crc);
    return buf;
}

/**
 * Unframe one journal line: check "CCCCCCCC <payload>" shape and
 * CRC; true with the payload on success.
 */
bool
unframeLine(const std::string &line, std::string *payload)
{
    if (line.size() < 10 || line[8] != ' ')
        return false;
    uint32_t want = 0;
    for (int i = 0; i < 8; ++i) {
        char c = line[static_cast<size_t>(i)];
        uint32_t digit;
        if (c >= '0' && c <= '9')
            digit = static_cast<uint32_t>(c - '0');
        else if (c >= 'a' && c <= 'f')
            digit = static_cast<uint32_t>(c - 'a' + 10);
        else
            return false;
        want = (want << 4) | digit;
    }
    *payload = line.substr(9);
    return crc32(payload->data(), payload->size()) == want;
}

} // anonymous namespace

JsonValue
journalHeaderToJson(const JournalHeader &header)
{
    JsonValue v = JsonValue::object();
    v.set("type", "header");
    writeFields(v, header);
    return v;
}

bool
journalHeaderFromJson(const JsonValue &doc, JournalHeader *header)
{
    std::string diag;
    SpecReader r(doc, "", &diag);
    std::string type;
    r.readString("type", &type);
    JournalHeader out;
    readFields(r, out);
    if (type != "header" || out.spec_sha256.empty() || !diag.empty())
        return false;
    *header = std::move(out);
    return true;
}

bool
readJournal(const std::string &path, JournalFile *out,
            std::string *error)
{
    std::string text;
    if (!readTextFile(path, &text, error))
        return false;
    *out = JournalFile();

    size_t pos = 0;
    bool first = true;
    while (pos < text.size()) {
        size_t nl = text.find('\n', pos);
        // A final line without '\n' is a torn tail from a crash
        // mid-append; the CRC check below rejects it if incomplete.
        std::string line = nl == std::string::npos
                               ? text.substr(pos)
                               : text.substr(pos, nl - pos);
        pos = nl == std::string::npos ? text.size() : nl + 1;
        if (line.empty())
            continue;

        std::string payload;
        JsonValue doc;
        std::string parse_err;
        if (!unframeLine(line, &payload) ||
            !JsonValue::parse(payload, &doc, &parse_err) ||
            !doc.isObject()) {
            ++out->dropped_lines;
            continue;
        }
        const JsonValue *type = doc.find("type");
        const std::string kind =
            type && type->isString() ? type->asString() : "";
        if (first && kind == "header") {
            out->has_header =
                journalHeaderFromJson(doc, &out->header);
            if (!out->has_header)
                ++out->dropped_lines;
            first = false;
            continue;
        }
        first = false;
        if (kind != "cell") {
            ++out->dropped_lines;
            continue;
        }
        const JsonValue *index = doc.find("index");
        const JsonValue *result = doc.find("result");
        if (!index || !index->isNumber() || !result) {
            ++out->dropped_lines;
            continue;
        }
        JournalRecord rec;
        rec.index = index->asU64();
        if (const JsonValue *label = doc.find("label"))
            rec.label = label->asString();
        rec.result = *result;
        out->records.push_back(std::move(rec));
    }
    return true;
}

bool
JournalWriter::open(const std::string &path, bool append,
                    std::string *error)
{
    close();
    f_ = std::fopen(path.c_str(), append ? "a" : "w");
    if (!f_) {
        if (error)
            *error = "cannot open journal '" + path +
                     "': " + std::strerror(errno);
        ok_ = false;
        return false;
    }
    path_ = path;
    ok_ = true;
    return true;
}

bool
JournalWriter::appendLine(const std::string &payload)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!f_ || !ok_)
        return false;
    const std::string line =
        crcHex(crc32(payload.data(), payload.size())) + " " +
        payload + "\n";
    if (std::fwrite(line.data(), 1, line.size(), f_) !=
            line.size() ||
        std::fflush(f_) != 0 || std::ferror(f_))
        ok_ = false;
    return ok_;
}

bool
JournalWriter::appendHeader(const JournalHeader &header)
{
    return appendLine(journalHeaderToJson(header).dump(0));
}

bool
JournalWriter::appendRecord(const JournalRecord &record)
{
    JsonValue v = JsonValue::object();
    v.set("type", "cell");
    v.set("index", record.index);
    v.set("label", record.label);
    v.set("result", record.result);
    return appendLine(v.dump(0));
}

bool
JournalWriter::close()
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!f_)
        return ok_;
    if (std::fflush(f_) != 0 || std::ferror(f_))
        ok_ = false;
    if (std::fclose(f_) != 0)
        ok_ = false;
    f_ = nullptr;
    return ok_;
}

} // namespace rtm
