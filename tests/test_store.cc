/**
 * @file
 * Tests for the content-addressed result store (exp::ResultStore):
 * payload round-trip through the codec, journal replay reconstructing
 * LRU order across reopen, persistent eviction under the
 * ACP_CACHE_MAX_ENTRIES cap, journal compaction keeping every live
 * entry servable, torn index and data repair, memory-only fallback, and
 * several processes writing one store at once.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <vector>

#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include "exp/result_codec.hh"
#include "exp/result_store.hh"

using namespace acp;

namespace
{

/** RAII scratch store directory. */
class ScratchStore
{
  public:
    explicit ScratchStore(const char *name) : path_(name) { clear(); }
    ~ScratchStore() { clear(); }
    const std::string &path() const { return path_; }

  private:
    void
    clear()
    {
        std::remove((path_ + "/index.txt").c_str());
        std::remove((path_ + "/data.txt").c_str());
        std::remove((path_ + "/lock").c_str());
        ::rmdir(path_.c_str());
    }
    std::string path_;
};

std::string
digestOf(char fill)
{
    return std::string(64, fill);
}

exp::Result
sampleResult(std::uint64_t insts)
{
    exp::Result result;
    result.run.insts = insts;
    result.run.cycles = insts * 3;
    result.run.ipc = 1.0 / 3.0;
    result.counters["l2.misses"] = 17;
    result.counters["core.auth_commit_stalls"] = insts + 1;
    exp::AvgStat avg;
    avg.count = 4;
    avg.sum = 10.5;
    avg.min = 1.25;
    avg.max = 5.5;
    result.averages["bus.queue_len"] = avg;
    exp::DistStat dist;
    dist.count = 3;
    dist.sum = 9;
    dist.min = 1;
    dist.max = 5;
    dist.buckets = {1, 0, 2};
    result.distributions["mem.latency"] = dist;
    return result;
}

TEST(ResultCodec, RoundTripsEveryStatKind)
{
    exp::Result in = sampleResult(9000);
    std::string line = exp::encodeResultTokens(in);

    exp::Result out;
    exp::decodeResultTokens(line, out);
    EXPECT_EQ(out.run.insts, in.run.insts);
    EXPECT_EQ(out.run.cycles, in.run.cycles);
    EXPECT_EQ(out.run.ipc, in.run.ipc); // %.17g: bit-exact doubles
    EXPECT_EQ(out.counters, in.counters);
    ASSERT_EQ(out.averages.size(), 1u);
    EXPECT_EQ(out.averages["bus.queue_len"].sum,
              in.averages["bus.queue_len"].sum);
    ASSERT_EQ(out.distributions.size(), 1u);
    EXPECT_EQ(out.distributions["mem.latency"].buckets,
              in.distributions["mem.latency"].buckets);

    // Encoding is deterministic: decode-encode is a fixed point.
    EXPECT_EQ(exp::encodeResultTokens(out), line);
}

TEST(ResultStore, PersistsAcrossReopen)
{
    ScratchStore dir("test_store_reopen");
    {
        exp::ResultStore store(dir.path());
        store.put(digestOf('a'), sampleResult(1000));
        store.put(digestOf('b'), sampleResult(2000));
        EXPECT_EQ(store.size(), 2u);
    }
    exp::ResultStore reopened(dir.path());
    EXPECT_EQ(reopened.size(), 2u);
    exp::Result out;
    ASSERT_TRUE(reopened.lookup(digestOf('a'), out));
    EXPECT_TRUE(out.fromCache);
    EXPECT_EQ(out.run.insts, 1000u);
    EXPECT_EQ(out.counters, sampleResult(1000).counters);
    EXPECT_EQ(reopened.stats().hits, 1u);
    EXPECT_FALSE(reopened.lookup(digestOf('z'), out));
    EXPECT_EQ(reopened.stats().misses, 1u);
}

TEST(ResultStore, LruOrderSurvivesReopen)
{
    ScratchStore dir("test_store_lru");
    {
        exp::ResultStore store(dir.path());
        store.put(digestOf('a'), sampleResult(1));
        store.put(digestOf('b'), sampleResult(2));
        store.put(digestOf('c'), sampleResult(3));
        // Touch 'a': it becomes most-recent, 'b' is now the LRU tail.
        exp::Result out;
        ASSERT_TRUE(store.lookup(digestOf('a'), out));
    }
    // Reopen with a cap of 2: replaying the journal must evict 'b'
    // (the true LRU), not 'a' (which the touch refreshed).
    exp::ResultStore capped(dir.path(), 2);
    EXPECT_EQ(capped.size(), 2u);
    exp::Result out;
    EXPECT_TRUE(capped.lookup(digestOf('a'), out));
    EXPECT_TRUE(capped.lookup(digestOf('c'), out));
    EXPECT_FALSE(capped.lookup(digestOf('b'), out));
}

TEST(ResultStore, EvictionIsJournaledNotJustInMemory)
{
    ScratchStore dir("test_store_evict_journal");
    {
        exp::ResultStore store(dir.path(), 1);
        store.put(digestOf('a'), sampleResult(1));
        store.put(digestOf('b'), sampleResult(2));
        EXPECT_EQ(store.size(), 1u);
        EXPECT_EQ(store.stats().evictions, 1u);
    }
    // Uncapped reopen: 'a' must stay gone.
    exp::ResultStore reopened(dir.path());
    EXPECT_EQ(reopened.size(), 1u);
    exp::Result out;
    EXPECT_FALSE(reopened.lookup(digestOf('a'), out));
    EXPECT_TRUE(reopened.lookup(digestOf('b'), out));
}

TEST(ResultStore, CompactionKeepsEveryLiveEntry)
{
    ScratchStore dir("test_store_compact");
    {
        exp::ResultStore store(dir.path(), 1);
        // Each put past the cap evicts the previous entry: dead
        // journal records pile up until compaction rewrites both
        // files around the live set.
        for (char c = 'a'; c <= 'z'; ++c)
            store.put(digestOf(c), sampleResult(std::uint64_t(c)));
        EXPECT_EQ(store.size(), 1u);
        EXPECT_EQ(store.stats().evictions, 25u);
    }
    exp::ResultStore reopened(dir.path());
    EXPECT_EQ(reopened.size(), 1u);
    exp::Result out;
    ASSERT_TRUE(reopened.lookup(digestOf('z'), out));
    EXPECT_EQ(out.run.insts, std::uint64_t('z'));

    // The journal stayed bounded: far fewer lines than 26 puts + 25
    // evictions would have appended without compaction.
    std::FILE *f = std::fopen((dir.path() + "/index.txt").c_str(), "r");
    ASSERT_NE(f, nullptr);
    int lines = 0;
    for (int ch; (ch = std::fgetc(f)) != EOF;)
        if (ch == '\n')
            ++lines;
    std::fclose(f);
    EXPECT_LT(lines, 26);
}

std::vector<std::string>
readLines(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "r");
    std::vector<std::string> lines;
    if (!f)
        return lines;
    std::string line;
    for (int ch; (ch = std::fgetc(f)) != EOF;) {
        if (ch != '\n') {
            line += char(ch);
            continue;
        }
        lines.push_back(line);
        line.clear();
    }
    if (!line.empty())
        lines.push_back(line); // unterminated last record
    std::fclose(f);
    return lines;
}

TEST(ResultStore, TornIndexRecordIsCutOnOpen)
{
    ScratchStore dir("test_store_torn");
    {
        exp::ResultStore store(dir.path());
        store.put(digestOf('a'), sampleResult(1));
        store.put(digestOf('b'), sampleResult(2));
        store.put(digestOf('c'), sampleResult(3));
    }
    // A crash in the middle of the last index append.
    const std::string index = dir.path() + "/index.txt";
    struct stat st;
    ASSERT_EQ(::stat(index.c_str(), &st), 0);
    ASSERT_EQ(::truncate(index.c_str(), st.st_size - 10), 0);
    {
        exp::ResultStore store(dir.path());
        EXPECT_EQ(store.size(), 2u);
        store.put(digestOf('d'), sampleResult(4));
    }
    exp::ResultStore reopened(dir.path());
    EXPECT_EQ(reopened.size(), 3u);
    exp::Result out;
    EXPECT_TRUE(reopened.lookup(digestOf('a'), out));
    EXPECT_TRUE(reopened.lookup(digestOf('b'), out));
    EXPECT_FALSE(reopened.lookup(digestOf('c'), out));
    ASSERT_TRUE(reopened.lookup(digestOf('d'), out));
    EXPECT_EQ(out.run.insts, 4u);

    // Every journal line is a complete record, never two fused ones.
    std::vector<std::string> lines = readLines(index);
    ASSERT_FALSE(lines.empty());
    EXPECT_EQ(lines[0], exp::ResultStore::kIndexHeader);
    for (std::size_t i = 1; i < lines.size(); ++i) {
        if (lines[i].rfind("#", 0) == 0)
            continue;
        std::istringstream fields(lines[i]);
        std::vector<std::string> tokens;
        for (std::string tok; fields >> tok;)
            tokens.push_back(tok);
        ASSERT_GE(tokens.size(), 2u) << lines[i];
        EXPECT_EQ(tokens[1].size(), 64u) << lines[i];
        if (tokens[0] == "put")
            EXPECT_EQ(tokens.size(), 4u) << lines[i];
        else
            EXPECT_TRUE((tokens[0] == "touch" || tokens[0] == "evict") &&
                        tokens.size() == 2)
                << lines[i];
    }
}

std::string
readText(const std::string &path)
{
    std::string text;
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return text;
    for (int ch; (ch = std::fgetc(f)) != EOF;)
        text += char(ch);
    std::fclose(f);
    return text;
}

/** Every put record's span is one whole data.txt line, and no bytes
 *  follow the last of them. */
void
expectWellFormedData(const std::string &dir)
{
    std::string data = readText(dir + "/data.txt");
    std::vector<std::string> lines = readLines(dir + "/index.txt");
    std::uint64_t end = 0;
    for (const std::string &line : lines) {
        std::istringstream fields(line);
        std::string op, digest;
        std::uint64_t offset = 0, len = 0;
        if (!(fields >> op >> digest >> offset >> len) || op != "put")
            continue;
        ASSERT_LT(offset + len, data.size()) << line;
        EXPECT_TRUE(offset == 0 || data[offset - 1] == '\n') << line;
        EXPECT_EQ(data[offset + len], '\n') << line;
        EXPECT_EQ(data.find('\n', offset), offset + len) << line;
        end = std::max(end, offset + len + 1);
    }
    EXPECT_EQ(data.size(), end);
}

TEST(ResultStore, TornDataTailIsCutOnOpen)
{
    ScratchStore dir("test_store_torn_data");
    const std::string data = dir.path() + "/data.txt";
    std::size_t last_len = 0;
    {
        exp::ResultStore store(dir.path());
        store.put(digestOf('a'), sampleResult(1));
        store.put(digestOf('b'), sampleResult(2));
        last_len = exp::encodeResultTokens(sampleResult(2)).size();
    }
    const std::string intact = readText(data);
    const std::string intact_index = readText(dir.path() + "/index.txt");

    // Cut 0 .. (b's payload + its newline + a's newline) bytes, with
    // and without the start of a put's payload that never reached the
    // index (a crash between the data and index appends).
    for (std::size_t cut = 0; cut <= last_len + 2; ++cut) {
        for (bool orphan : {false, true}) {
            SCOPED_TRACE("cut " + std::to_string(cut) +
                         (orphan ? " + orphan" : ""));
            std::string torn = intact.substr(0, intact.size() - cut);
            if (orphan)
                torn += exp::encodeResultTokens(sampleResult(99))
                            .substr(0, 40);
            std::FILE *f = std::fopen(data.c_str(), "wb");
            ASSERT_NE(f, nullptr);
            std::fwrite(torn.data(), 1, torn.size(), f);
            std::fclose(f);
            f = std::fopen((dir.path() + "/index.txt").c_str(), "wb");
            ASSERT_NE(f, nullptr);
            std::fwrite(intact_index.data(), 1, intact_index.size(), f);
            std::fclose(f);

            // A put survives while its whole payload and newline do.
            const bool has_b = cut == 0;
            const bool has_a = cut <= last_len + 1;
            const std::size_t kept = std::size_t(has_a) + has_b;
            {
                exp::ResultStore store(dir.path());
                EXPECT_EQ(store.size(), kept);
                expectWellFormedData(dir.path());
                store.put(digestOf('c'), sampleResult(3));
            }
            expectWellFormedData(dir.path());
            exp::ResultStore reopened(dir.path());
            EXPECT_EQ(reopened.size(), kept + 1);
            exp::Result out;
            for (auto [digest, insts] :
                 {std::pair{'a', 1u}, std::pair{'b', 2u},
                  std::pair{'c', 3u}}) {
                bool hit = reopened.lookup(digestOf(digest), out);
                EXPECT_EQ(hit, digest == 'c' ||
                                   (digest == 'a' ? has_a : has_b))
                    << digest;
                if (hit) {
                    EXPECT_EQ(exp::encodeResultTokens(out),
                              exp::encodeResultTokens(
                                  sampleResult(insts)))
                        << digest;
                }
            }
        }
    }
}

TEST(ResultStore, UnwritableDirectoryServesFromMemory)
{
    // A regular file where the store's parent directory should be:
    // neither the directory nor its lock file can be created.
    const char *blocker = "test_store_blocker";
    std::FILE *f = std::fopen(blocker, "w");
    ASSERT_NE(f, nullptr);
    std::fclose(f);
    {
        exp::ResultStore store(std::string(blocker) + "/store");
        store.put(digestOf('a'), sampleResult(7));
        EXPECT_EQ(store.size(), 1u);
        exp::Result out;
        ASSERT_TRUE(store.lookup(digestOf('a'), out));
        EXPECT_EQ(out.run.insts, 7u);
    }
    std::remove(blocker);
}

/** Distinct digest and payload id of writer @p w's @p i-th put. */
std::string
writerDigest(int w, int i)
{
    char buf[65];
    std::snprintf(buf, sizeof(buf), "%08x%056x", unsigned(w),
                  unsigned(i));
    return buf;
}

std::uint64_t
writerPayload(int w, int i)
{
    return std::uint64_t(w) * 100000 + std::uint64_t(i) + 1;
}

TEST(ResultStore, ConcurrentProcessesKeepEveryEntry)
{
    constexpr int kWriters = 4;
    constexpr int kPuts = 400;
    ScratchStore dir("test_store_processes");

    // Writers block on the pipe until all are forked, then race.
    int gate[2];
    ASSERT_EQ(::pipe(gate), 0);
    std::vector<pid_t> writers;
    for (int w = 0; w < kWriters; ++w) {
        pid_t pid = ::fork();
        ASSERT_GE(pid, 0);
        if (pid == 0) {
            ::close(gate[1]);
            char byte;
            (void)!::read(gate[0], &byte, 1);
            exp::ResultStore store(dir.path());
            for (int i = 0; i < kPuts; ++i)
                store.put(writerDigest(w, i),
                          sampleResult(writerPayload(w, i)));
            std::_Exit(0);
        }
        writers.push_back(pid);
    }
    ::close(gate[0]);
    ::close(gate[1]);
    for (pid_t pid : writers) {
        int status = 0;
        ASSERT_EQ(::waitpid(pid, &status, 0), pid);
        EXPECT_TRUE(WIFEXITED(status) && WEXITSTATUS(status) == 0);
    }

    exp::ResultStore reopened(dir.path());
    EXPECT_EQ(reopened.size(), std::size_t(kWriters * kPuts));
    for (int w = 0; w < kWriters; ++w) {
        for (int i = 0; i < kPuts; ++i) {
            exp::Result out;
            ASSERT_TRUE(reopened.lookup(writerDigest(w, i), out))
                << "writer " << w << " put " << i;
            EXPECT_EQ(exp::encodeResultTokens(out),
                      exp::encodeResultTokens(
                          sampleResult(writerPayload(w, i))))
                << "writer " << w << " put " << i
                << " decodes to another point's payload";
        }
    }
}

} // namespace
