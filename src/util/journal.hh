/**
 * @file
 * Append-only, crash-tolerant result journal (JSONL + CRC framing).
 *
 * The experiment engine streams one record per completed cell so a
 * crash, OOM-kill or SIGINT mid-campaign loses at most the cells in
 * flight; `--resume <journal>` replays the completed ones and re-runs
 * the rest, reproducing the bit-identical final merge.
 *
 * File format, one record per line:
 *
 *     CCCCCCCC <compact-json>\n
 *
 * where CCCCCCCC is the lowercase-hex CRC-32 (util/hash.hh) of
 * everything after the single separating space, newline excluded.
 * The first line is a header record carrying the spec identity
 * (SHA-256 of the normalized spec, section seeds, total cell count);
 * every later line is a cell record with the cell's job index and
 * serialized result.
 *
 * Robustness discipline: lines are independent, so a torn tail (the
 * classic crash artifact) or a corrupted line invalidates only
 * itself — the reader drops it, counts it, and keeps the rest. The
 * writer flushes after every record, making each completed cell
 * durable at the libc boundary before the next one starts.
 */

#ifndef RTM_UTIL_JOURNAL_HH
#define RTM_UTIL_JOURNAL_HH

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <string>
#include <vector>

#include "util/fields.hh"

namespace rtm
{

/** Identity of the run a journal belongs to (line one). */
struct JournalHeader
{
    int version = 1;
    std::string name;        //!< spec name (diagnostics only)
    std::string spec_sha256; //!< experimentSpecHash of the run
    uint64_t matrix_seed = 0;
    uint64_t campaign_seed = 0;
    uint64_t stress_seed = 0;
    uint64_t mc_seed = 0;
    uint64_t cells = 0; //!< total scheduled cells of the run

    bool operator==(const JournalHeader &) const = default;
};

/** Header keys after `"type": "header"` (util/fields.hh). */
template <class V, FieldsOf<JournalHeader>... H>
void
forEachField(V &&v, H &...h)
{
    v("version", h.version...);
    v("name", h.name...);
    v("spec_sha256", h.spec_sha256...);
    v("seeds", SubObject{[&](auto &s) {
          s("matrix", h.matrix_seed...);
          s("campaign", h.campaign_seed...);
          s("stress", h.stress_seed...);
          s("montecarlo", h.mc_seed...);
      }});
    v("cells", h.cells...);
}

JsonValue journalHeaderToJson(const JournalHeader &header);
bool journalHeaderFromJson(const JsonValue &doc,
                           JournalHeader *header);

/** One completed cell (result is the cell's full serialized slot). */
struct JournalRecord
{
    uint64_t index = 0; //!< engine job index
    std::string label;  //!< cell label (diagnostics only)
    JsonValue result;
};

/** Everything salvageable from a journal file. */
struct JournalFile
{
    bool has_header = false;
    JournalHeader header;
    std::vector<JournalRecord> records; //!< valid records, file order
    /** Lines dropped for bad CRC, truncation, or malformed JSON. */
    uint64_t dropped_lines = 0;
};

/**
 * Read a journal, salvaging every intact record. Returns false only
 * when the file itself cannot be read (open/IO failure) — corrupted
 * *lines* are not an error, they are counted in dropped_lines and
 * the affected cells simply re-run on resume.
 */
bool readJournal(const std::string &path, JournalFile *out,
                 std::string *error);

/**
 * Streaming journal writer. append* is thread-safe (internally
 * locked) and flushes each record, so concurrent engine workers can
 * checkpoint completed cells directly. Any write failure latches
 * ok() false; close() reports the final verdict so tools can exit
 * non-zero on a full disk instead of pretending the checkpoint
 * exists.
 */
class JournalWriter
{
  public:
    JournalWriter() = default;
    ~JournalWriter() { close(); }

    JournalWriter(const JournalWriter &) = delete;
    JournalWriter &operator=(const JournalWriter &) = delete;

    /**
     * @param append continue an existing journal (resume streaming
     *               into the file just replayed) instead of
     *               truncating
     */
    bool open(const std::string &path, bool append,
              std::string *error = nullptr);

    bool appendHeader(const JournalHeader &header);
    bool appendRecord(const JournalRecord &record);

    /** False once any write has failed. */
    bool ok() const { return ok_; }

    /** Flush + close; false if the stream ever failed. */
    bool close();

    bool isOpen() const { return f_ != nullptr; }
    const std::string &path() const { return path_; }

  private:
    bool appendLine(const std::string &payload);

    std::FILE *f_ = nullptr;
    std::string path_;
    std::mutex mutex_;
    bool ok_ = true;
};

} // namespace rtm

#endif // RTM_UTIL_JOURNAL_HH
