#include "exp/result_store.hh"

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include <fcntl.h>
#include <sys/file.h>
#include <sys/stat.h>
#include <unistd.h>

#include "exp/result_codec.hh"
#include "obs/manifest.hh"

namespace acp::exp
{

namespace
{

/** Write @p text as the complete new contents of @p path. */
bool
writeFile(const std::string &path, const std::string &text)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::fwrite(text.data(), 1, text.size(), f);
    std::fclose(f);
    return true;
}

/** Append the complete contents of @p path to @p out. */
void
readFile(const std::string &path, std::string &out)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return;
    char buf[65536];
    for (std::size_t n; (n = std::fread(buf, 1, sizeof(buf), f)) > 0;)
        out.append(buf, n);
    std::fclose(f);
}

/** Fresh index header: version line + provenance manifest comment. */
std::string
indexHeaderText()
{
    return std::string(ResultStore::kIndexHeader) + "\n# " +
           obs::manifestJsonLine(obs::manifest()) + "\n";
}

/** flock(LOCK_EX) on the store's lock file for one scope; a no-op
 *  for a memory-only store (fd < 0). */
class DirLock
{
  public:
    explicit DirLock(int fd) : fd_(fd)
    {
        if (fd_ >= 0)
            while (::flock(fd_, LOCK_EX) != 0 && errno == EINTR)
                continue;
    }
    ~DirLock()
    {
        if (fd_ >= 0)
            ::flock(fd_, LOCK_UN);
    }
    DirLock(const DirLock &) = delete;
    DirLock &operator=(const DirLock &) = delete;

  private:
    int fd_;
};

} // namespace

ResultStore::ResultStore(std::string dir, std::size_t max_entries)
    : dir_(std::move(dir)), maxEntries_(max_entries)
{
    if (maxEntries_ == 0)
        if (const char *env = std::getenv("ACP_CACHE_MAX_ENTRIES"))
            maxEntries_ = std::strtoull(env, nullptr, 10);
    ::mkdir(dir_.c_str(), 0777); // EEXIST is the common case
    lockFd_ = ::open((dir_ + "/lock").c_str(),
                     O_RDWR | O_CREAT | O_CLOEXEC, 0666);

    std::lock_guard<std::mutex> lock(mutex_);
    DirLock dir_lock(lockFd_);
    if (lockFd_ >= 0) {
        std::string index;
        readFile(indexPath(), index);
        // A crash mid-append leaves a torn last record; cut it off so
        // the next append starts a fresh line instead of fusing onto
        // it.
        std::size_t last_eol = index.rfind('\n');
        std::size_t complete =
            last_eol == std::string::npos ? 0 : last_eol + 1;
        if (complete < index.size()) {
            if (::truncate(indexPath().c_str(), off_t(complete)) != 0)
                std::perror(indexPath().c_str());
            index.resize(complete);
        }
        if (!replayLocked(index)) {
            // No (or stale/foreign) index: start the store fresh.
            writeFile(indexPath(), indexHeaderText());
            writeFile(dataPath(), "");
        }
    }
    // A cap that shrank since the journal was written applies now.
    evictLocked();
    if (deadRecords_ > entries_.size() + 16)
        compactLocked();
}

ResultStore::~ResultStore()
{
    if (lockFd_ >= 0)
        ::close(lockFd_);
}

bool
ResultStore::replayLocked(const std::string &index)
{
    std::size_t eol = index.find('\n');
    if (eol == std::string::npos ||
        index.compare(0, eol, kIndexHeader) != 0)
        return false; // empty or foreign/stale index: rebuild

    // Replay the journal: live set + LRU order (front = most recent).
    struct Span
    {
        std::uint64_t offset = 0;
        std::uint64_t len = 0;
        std::list<std::string>::iterator lruIt;
    };
    std::unordered_map<std::string, Span> spans;
    std::string data;
    readFile(dataPath(), data);
    // A payload is whole once the newline after it is written.
    auto whole = [&data](std::uint64_t offset, std::uint64_t len) {
        return offset <= data.size() && len < data.size() - offset &&
               data[offset + len] == '\n';
    };
    // End of the last whole payload any put record references
    // (superseded and evicted ones included): bytes past it are a
    // torn append.
    std::uint64_t data_end = 0;
    for (std::size_t pos = eol + 1; pos < index.size(); pos = eol + 1) {
        eol = index.find('\n', pos);
        if (eol == std::string::npos)
            eol = index.size();
        std::string line = index.substr(pos, eol - pos);
        if (line.empty() || line[0] == '#')
            continue;
        char op[8], digest[128];
        unsigned long long offset = 0, len = 0;
        int n = std::sscanf(line.c_str(), "%7s %127s %llu %llu", op,
                            digest, &offset, &len);
        if (n < 2)
            continue;
        std::string key(digest);
        auto it = spans.find(key);
        if (std::string(op) == "put" && n == 4) {
            if (whole(offset, len))
                data_end = std::max<std::uint64_t>(data_end,
                                                   offset + len + 1);
            if (it != spans.end()) {
                lru_.erase(it->second.lruIt);
                spans.erase(it);
                ++deadRecords_; // superseded put
            }
            lru_.push_front(key);
            spans[key] = Span{offset, len, lru_.begin()};
        } else if (std::string(op) == "touch") {
            if (it != spans.end())
                lru_.splice(lru_.begin(), lru_, it->second.lruIt);
            else
                ++deadRecords_;
        } else if (std::string(op) == "evict") {
            if (it != spans.end()) {
                lru_.erase(it->second.lruIt);
                spans.erase(it);
                ++deadRecords_; // the killed put
            }
            ++deadRecords_; // the evict record itself
        }
    }

    if (data_end < data.size()) {
        if (::truncate(dataPath().c_str(), off_t(data_end)) != 0)
            std::perror(dataPath().c_str());
        data.resize(data_end);
    }

    // Resolve payloads. A span that cannot be read (truncated data
    // file, crashed writer) just drops its entry: the store serves
    // only what it can prove it has.
    bool lost = false;
    for (auto it = lru_.begin(); it != lru_.end();) {
        const Span &span = spans[*it];
        if (!whole(span.offset, span.len)) {
            ++deadRecords_;
            it = lru_.erase(it);
            lost = true;
            continue;
        }
        Entry entry;
        entry.result.fromCache = true;
        decodeResultTokens(data.substr(span.offset, span.len),
                           entry.result);
        entry.lruIt = it;
        entries_.emplace(*it, std::move(entry));
        ++it;
    }
    // The next put lands where a lost payload's span points; rewrite
    // the journal so that span can never resolve to another payload.
    if (lost)
        compactLocked();
    return true;
}

bool
ResultStore::lookup(const std::string &digest, Result &out)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(digest);
    if (it == entries_.end()) {
        ++stats_.misses;
        return false;
    }
    ++stats_.hits;
    lru_.splice(lru_.begin(), lru_, it->second.lruIt);
    {
        DirLock dir_lock(lockFd_);
        appendIndexLocked("touch " + digest);
    }
    out = it->second.result;
    out.fromCache = true;
    return true;
}

void
ResultStore::put(const std::string &digest, const Result &result)
{
    std::lock_guard<std::mutex> lock(mutex_);
    DirLock dir_lock(lockFd_);
    ++stats_.stores;
    insertLocked(digest, result);
    evictLocked();
}

void
ResultStore::insertLocked(const std::string &digest,
                          const Result &result)
{
    std::string payload = encodeResultTokens(result);
    std::uint64_t offset = 0;
    // An unwritable store still serves the entry from memory.
    if (appendDataLocked(payload, offset)) {
        char span[64];
        std::snprintf(span, sizeof(span), " %llu %zu",
                      (unsigned long long)offset, payload.size());
        appendIndexLocked("put " + digest + span);
    }

    auto it = entries_.find(digest);
    if (it != entries_.end()) {
        ++deadRecords_; // superseded put
        it->second.result = result;
        it->second.result.fromCache = true;
        lru_.splice(lru_.begin(), lru_, it->second.lruIt);
        return;
    }
    lru_.push_front(digest);
    Entry entry;
    entry.result = result;
    entry.result.fromCache = true;
    entry.lruIt = lru_.begin();
    entries_.emplace(digest, std::move(entry));
}

void
ResultStore::evictLocked()
{
    if (maxEntries_ == 0)
        return;
    while (entries_.size() > maxEntries_ && !lru_.empty()) {
        std::string victim = lru_.back();
        lru_.pop_back();
        entries_.erase(victim);
        appendIndexLocked("evict " + victim);
        deadRecords_ += 2; // the evict record + the put it killed
        ++stats_.evictions;
    }
}

void
ResultStore::compactLocked()
{
    // Rewrite both files from the live set, least-recent first so a
    // replay (every put lands at most-recent) reconstructs the exact
    // LRU order. Temp-file + rename keeps a crash from eating the
    // store.
    std::string data_text;
    std::string index_text = indexHeaderText();
    for (auto it = lru_.rbegin(); it != lru_.rend(); ++it) {
        std::string payload =
            encodeResultTokens(entries_[*it].result);
        char span[64];
        std::snprintf(span, sizeof(span), " %llu %zu\n",
                      (unsigned long long)data_text.size(),
                      payload.size());
        index_text += "put " + *it + span;
        data_text += payload + "\n";
    }
    std::string data_tmp = dataPath() + ".tmp";
    std::string index_tmp = indexPath() + ".tmp";
    if (!writeFile(data_tmp, data_text) ||
        !writeFile(index_tmp, index_text))
        return;
    if (std::rename(data_tmp.c_str(), dataPath().c_str()) != 0)
        return;
    if (std::rename(index_tmp.c_str(), indexPath().c_str()) != 0)
        return;
    deadRecords_ = 0;
}

bool
ResultStore::appendIndexLocked(const std::string &line)
{
    if (lockFd_ < 0)
        return false;
    std::FILE *f = std::fopen(indexPath().c_str(), "a");
    if (!f)
        return false;
    std::fprintf(f, "%s\n", line.c_str());
    std::fclose(f);
    return true;
}

bool
ResultStore::appendDataLocked(const std::string &payload,
                              std::uint64_t &offset)
{
    if (lockFd_ < 0)
        return false;
    std::FILE *f = std::fopen(dataPath().c_str(), "a");
    if (!f)
        return false;
    // The caller holds the directory lock, so no other process can
    // append between this offset read and the write below.
    std::fseek(f, 0, SEEK_END);
    long at = std::ftell(f);
    if (at < 0) {
        std::fclose(f);
        return false;
    }
    offset = std::uint64_t(at);
    std::fwrite(payload.data(), 1, payload.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
    return true;
}

std::size_t
ResultStore::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

ResultStore::Stats
ResultStore::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

} // namespace acp::exp
