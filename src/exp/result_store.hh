/**
 * @file
 * Content-addressed, persistently-LRU-bounded result store — the one
 * result backend behind exp::submit.
 *
 * Layout (a directory, ./acp_store by default):
 *
 *   <dir>/index.txt   acp-store-v1
 *                     # {"schema": "acp-manifest-v1", ...}
 *                     put <64-hex-digest> <offset> <len>
 *                     touch <digest>
 *                     evict <digest>
 *   <dir>/data.txt    one result_codec payload line per put, at the
 *                     recorded byte offset/length
 *   <dir>/lock        empty; flock()ed to serialize processes
 *
 * The index is an append-only journal: replaying it reconstructs both
 * the live entry set and the LRU order (put/touch move an entry to
 * most-recent; evict removes it). This is what makes the
 * ACP_CACHE_MAX_ENTRIES cap *persistent* — the old ResultCache
 * evicted only its in-memory map while its file kept every line, so
 * a capped cache silently grew without bound on disk and re-served
 * "evicted" entries after reopen. Here an eviction is journaled and
 * survives reopen; the journal is compacted (both files rewritten
 * from the live set) when dead records outnumber live ones.
 *
 * Results are keyed on pointDigest() alone: SHA-256 over the complete
 * serialized SimConfig plus workload identity and window, so every
 * configuration knob participates in the key.
 *
 * Sharing across processes: any number of processes (and ResultStore
 * instances) may use one directory at once. Each instance opens
 * <dir>/lock once and holds flock(LOCK_EX) on it
 *   - for the whole open: torn-tail repair, replay, fresh
 *     initialisation and compaction;
 *   - for each put: the data append, the read of its offset and the
 *     index append (plus any evict records the cap triggers);
 *   - for each touch record a lookup hit appends.
 * Lookups are served from the in-memory replay, so another process's
 * puts become visible at this instance's next open. A crash can leave
 * the last index record cut mid-line; open truncates index.txt back
 * to its last newline, so the next append starts on a fresh line.
 * A crash can also leave bytes in data.txt that no put record
 * references (a put that never reached the index, or a payload cut
 * before its newline); open truncates data.txt after the newline of
 * the last whole payload the journal references, so the next put's
 * span starts a fresh line. A put whose payload is not whole is
 * dropped, and the journal is then compacted so its span cannot come
 * to point into a later payload.
 * When the lock file cannot be created (unwritable directory) the
 * store serves from memory only and touches no file.
 */

#ifndef ACP_EXP_RESULT_STORE_HH
#define ACP_EXP_RESULT_STORE_HH

#include <cstdint>
#include <list>
#include <mutex>
#include <string>
#include <unordered_map>

#include "exp/result.hh"

namespace acp::exp
{

/** The persistent store. All methods are thread-safe, and instances
 *  in several processes may share one directory (see file comment). */
class ResultStore
{
  public:
    static constexpr const char *kIndexHeader = "acp-store-v1";

    /** Lifetime telemetry of one store instance (sweep JSON
     *  "telemetry" block). */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t stores = 0;
        std::uint64_t evictions = 0;
    };

    /**
     * Open (creating if needed) the store directory @p dir and replay
     * its index. @p max_entries bounds the live entry count with LRU
     * eviction; 0 reads ACP_CACHE_MAX_ENTRIES (0/unset = unlimited).
     */
    explicit ResultStore(std::string dir, std::size_t max_entries = 0);
    ~ResultStore();

    ResultStore(const ResultStore &) = delete;
    ResultStore &operator=(const ResultStore &) = delete;

    /** Look up a digest; fills @p out (fromCache=true) on a hit and
     *  journals the recency touch. */
    bool lookup(const std::string &digest, Result &out);

    /** Insert (or refresh) an entry; appends the payload to data.txt,
     *  journals the put, and evicts past the cap. */
    void put(const std::string &digest, const Result &result);

    /** Live (resident and servable) entry count. */
    std::size_t size() const;

    const std::string &dir() const { return dir_; }

    /** Hit/miss/store/evict counters since construction. */
    Stats stats() const;

  private:
    struct Entry
    {
        Result result;
        /** Position in lru_ (front = most recent). */
        std::list<std::string>::iterator lruIt;
    };

    std::string indexPath() const { return dir_ + "/index.txt"; }
    std::string dataPath() const { return dir_ + "/data.txt"; }

    /** Replay @p index (the whole journal text); false when it is
     *  empty or foreign and the store must start fresh. */
    bool replayLocked(const std::string &index);
    void compactLocked();
    bool appendIndexLocked(const std::string &line);
    /** Append one payload line to data.txt; false on I/O failure. */
    bool appendDataLocked(const std::string &payload,
                          std::uint64_t &offset);
    void insertLocked(const std::string &digest, const Result &result);
    void evictLocked();

    std::string dir_;
    /** <dir>/lock, open for the instance's lifetime; -1 = memory only. */
    int lockFd_ = -1;
    /** Journal records that no longer describe a live entry. */
    std::size_t deadRecords_ = 0;
    /** Live-entry cap (ACP_CACHE_MAX_ENTRIES env; 0 = unlimited). */
    std::size_t maxEntries_ = 0;
    mutable std::mutex mutex_;
    mutable Stats stats_;
    /** Digests, front = most recently used. */
    std::list<std::string> lru_;
    std::unordered_map<std::string, Entry> entries_;
};

} // namespace acp::exp

#endif // ACP_EXP_RESULT_STORE_HH
