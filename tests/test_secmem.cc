/**
 * @file
 * Secure-memory tests: external (ciphertext) memory round trips and
 * tamper detection, the in-order authentication engine, the hash tree
 * and the remap layer.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "isa/program.hh"
#include "secmem/auth_engine.hh"
#include "secmem/counter_predictor.hh"
#include "secmem/external_memory.hh"
#include "secmem/hash_tree.hh"
#include "secmem/mem_hierarchy.hh"
#include "secmem/remap.hh"
#include "sim/config.hh"

using namespace acp;
using namespace acp::secmem;

// ---------------------------------------------------------------- extmem

TEST(ExternalMemory, LazyLinesReadZero)
{
    ExternalMemory ext(1);
    FetchedLine line = ext.fetchLine(0x12340);
    EXPECT_TRUE(line.macOk);
    for (auto byte : line.plain)
        EXPECT_EQ(byte, 0);
}

TEST(ExternalMemory, StoreFetchRoundTrip)
{
    ExternalMemory ext(2);
    std::uint8_t data[kExtLineBytes];
    for (unsigned i = 0; i < kExtLineBytes; ++i)
        data[i] = std::uint8_t(i * 3);
    ext.storeLine(0x4000, data);

    FetchedLine line = ext.fetchLine(0x4000);
    EXPECT_TRUE(line.macOk);
    EXPECT_EQ(0, std::memcmp(line.plain.data(), data, kExtLineBytes));
    EXPECT_EQ(line.counter, 1u);
}

TEST(ExternalMemory, CounterIncrementsPerStore)
{
    ExternalMemory ext(3);
    std::uint8_t data[kExtLineBytes] = {0};
    for (int i = 0; i < 5; ++i)
        ext.storeLine(0x8000, data);
    EXPECT_EQ(ext.counterOf(0x8000), 5u);
    EXPECT_EQ(ext.counterOf(0x8040), 0u);
}

TEST(ExternalMemory, ProvisionDoesNotBumpCounter)
{
    ExternalMemory ext(4);
    std::uint8_t data[kExtLineBytes] = {1, 2, 3};
    ext.provisionLine(0x1000, data);
    EXPECT_EQ(ext.counterOf(0x1000), 0u);
    FetchedLine line = ext.fetchLine(0x1000);
    EXPECT_TRUE(line.macOk);
    EXPECT_EQ(line.plain[0], 1);
}

TEST(ExternalMemory, TamperDetectedByMac)
{
    ExternalMemory ext(5);
    std::uint8_t data[kExtLineBytes] = {0xaa, 0xbb};
    ext.storeLine(0x2000, data);

    std::uint8_t mask = 0x01;
    ext.tamper(0x2007, &mask, 1);

    FetchedLine line = ext.fetchLine(0x2000);
    EXPECT_FALSE(line.macOk);
    // CTR malleability: exactly the tampered bit flipped in plaintext.
    EXPECT_EQ(line.plain[7], data[7] ^ 0x01);
    EXPECT_EQ(line.plain[0], data[0]);
}

TEST(ExternalMemory, TamperAcrossLines)
{
    ExternalMemory ext(6);
    std::uint8_t mask[4] = {0xff, 0xff, 0xff, 0xff};
    ext.tamper(kExtLineBytes - 2, mask, 4); // spans line 0 and line 1
    EXPECT_FALSE(ext.fetchLine(0).macOk);
    EXPECT_FALSE(ext.fetchLine(kExtLineBytes).macOk);
}

TEST(ExternalMemory, CiphertextDiffersFromPlaintext)
{
    ExternalMemory ext(7);
    std::uint8_t data[kExtLineBytes];
    for (unsigned i = 0; i < kExtLineBytes; ++i)
        data[i] = std::uint8_t(i);
    ext.storeLine(0x3000, data);
    auto cipher = ext.readCiphertext(0x3000, kExtLineBytes);
    EXPECT_NE(0, std::memcmp(cipher.data(), data, kExtLineBytes));
}

namespace
{

std::string
hex(const std::vector<std::uint8_t> &bytes)
{
    static const char digits[] = "0123456789abcdef";
    std::string out;
    for (std::uint8_t b : bytes) {
        out += digits[b >> 4];
        out += digits[b & 0xf];
    }
    return out;
}

std::uint64_t
counterValue(const StatGroup &group, const std::string &name)
{
    struct Find : StatVisitor
    {
        const std::string &want;
        std::uint64_t value = ~std::uint64_t(0);
        explicit Find(const std::string &w) : want(w) {}
        void
        onCounter(const std::string &n, std::uint64_t v) override
        {
            if (n == want)
                value = v;
        }
    } find(name);
    group.visit(find);
    return find.value;
}

} // namespace

TEST(ExternalMemory, SealedImageMatchesPinnedVector)
{
    // Pinned ciphertext of a provisioned line, of its first writeback
    // and of a never-written line. The MAC is pinned through the
    // fetch: the ciphertext decrypts to the same plaintext under the
    // same key, so macOk means the stored MAC is unchanged.
    ExternalMemory ext(0x5eed);
    std::uint8_t data[kExtLineBytes];
    for (unsigned i = 0; i < kExtLineBytes; ++i)
        data[i] = std::uint8_t(7 * i + 1);
    ext.provisionLine(0x12340, data);
    EXPECT_EQ(hex(ext.readCiphertext(0x12340, kExtLineBytes)),
              "69a56b1398093dcaf8df193032bdb3b46e2167f7649f85503856be603459"
              "e3975a3c89e304729b92af3caa31faa7070b2fb269bee39586cf69da3b0e"
              "6c19f5a8");

    FetchedLine line = ext.fetchLine(0x12340);
    EXPECT_TRUE(line.macOk);
    EXPECT_EQ(0, std::memcmp(line.plain.data(), data, kExtLineBytes));

    ext.storeLine(0x12340, data);
    EXPECT_EQ(hex(ext.readCiphertext(0x12340, 16)),
              "28f023d387c3307530e047d2fd2aef2f");
    EXPECT_EQ(hex(ext.readCiphertext(0x20000, 16)), // never-written line
              "51bf4148813e5c77f9a3557635596165");
}

TEST(ExternalMemory, TamperBeforeFirstFetchIsDetected)
{
    ExternalMemory ext(8);
    std::uint8_t data[kExtLineBytes];
    for (unsigned i = 0; i < kExtLineBytes; ++i)
        data[i] = std::uint8_t(0xc0 + i);
    ext.provisionLine(0x6000, data);
    ext.provisionLine(0x6040, data);

    // The line was never fetched: the flip must land on real
    // ciphertext and fail the MAC, with CTR malleability intact.
    std::uint8_t mask = 0x80;
    ext.tamper(0x6005, &mask, 1);
    FetchedLine bad = ext.fetchLine(0x6000);
    EXPECT_FALSE(bad.macOk);
    EXPECT_EQ(bad.plain[5], data[5] ^ 0x80);

    FetchedLine good = ext.fetchLine(0x6040);
    EXPECT_TRUE(good.macOk);
    EXPECT_EQ(0, std::memcmp(good.plain.data(), data, kExtLineBytes));
}

TEST(ExternalMemory, ProvisionedLinesCountBeforeAnyFetch)
{
    ExternalMemory ext(9);
    std::uint8_t data[kExtLineBytes] = {1};
    for (Addr a = 0; a < 10 * kExtLineBytes; a += kExtLineBytes)
        ext.provisionLine(0x40000 + a, data);
    EXPECT_EQ(ext.linesTouched(), 10u);
    EXPECT_EQ(counterValue(ext.stats(), "extmem.fetches"), 0u);
    ext.provisionLine(0x40000, data); // re-provisioning adds no line
    EXPECT_EQ(ext.linesTouched(), 10u);
}

TEST(ExternalMemory, LoadProgramFetchesOnlyPartialLines)
{
    sim::SimConfig cfg;
    cfg.memoryBytes = 1 << 24;
    cfg.protectedBytes = cfg.memoryBytes;
    MemHierarchy hier(cfg);

    isa::ProgramBuilder pb(0x1000, "partial");
    for (int i = 0; i < 3; ++i)
        pb.addi(5, 5, 1);
    pb.halt();
    std::vector<std::uint8_t> seg(300);
    for (std::size_t i = 0; i < seg.size(); ++i)
        seg[i] = std::uint8_t(i);
    pb.addData(0x8010, seg); // partial head, 3 full lines, partial tail
    pb.addData64(0x9000, 0x0123456789abcdefULL);
    hier.loadProgram(pb.finish());

    ExternalMemory &ext = hier.ctrl().externalMemory();
    EXPECT_EQ(counterValue(ext.stats(), "extmem.fetches"), 4u);
    EXPECT_EQ(ext.linesTouched(), 7u);
    EXPECT_EQ(hier.funcRead(0x8010 + 299, 1, false), 299u & 0xff);
    EXPECT_EQ(hier.funcRead(0x9000, 8, false), 0x0123456789abcdefULL);
}

// ---------------------------------------------------------------- engine

TEST(AuthEngine, InOrderCompletion)
{
    AuthEngine eng(100, 100); // serial

    AuthSeq a = eng.post(1000, 0, true);
    AuthSeq b = eng.post(1000, 0, true);
    AuthSeq c = eng.post(1000, 0, true);
    EXPECT_EQ(a, 1u);
    EXPECT_EQ(b, 2u);
    EXPECT_EQ(c, 3u);
    EXPECT_EQ(eng.lastRequest(), 3u);

    // Serial engine: each completion 100 cycles after the previous
    // start.
    EXPECT_EQ(eng.doneCycle(a), 1100u);
    EXPECT_EQ(eng.doneCycle(b), 1200u);
    EXPECT_EQ(eng.doneCycle(c), 1300u);
    EXPECT_LE(eng.doneCycle(a), eng.doneCycle(b));
    EXPECT_LE(eng.doneCycle(b), eng.doneCycle(c));
}

TEST(AuthEngine, PipelinedEngineOverlaps)
{
    AuthEngine eng(148, 74); // pipelined: one pass occupancy
    eng.post(0, 0, true);
    AuthSeq b = eng.post(0, 0, true);
    EXPECT_EQ(eng.doneCycle(b), 74u + 148u);
}

TEST(AuthEngine, IdleEngineNoQueueDelay)
{
    AuthEngine eng(148, 148);
    AuthSeq a = eng.post(5000, 0, true);
    EXPECT_EQ(eng.doneCycle(a), 5148u);
    // Long idle gap: next request starts immediately at its ready time.
    AuthSeq b = eng.post(100000, 0, true);
    EXPECT_EQ(eng.doneCycle(b), 100148u);
}

TEST(AuthEngine, NoSeqQueriesReturnZero)
{
    AuthEngine eng(148, 148);
    EXPECT_EQ(eng.doneCycle(kNoAuthSeq), 0u);
    EXPECT_TRUE(eng.verifiedBy(kNoAuthSeq, 0));
}

TEST(AuthEngine, FailureTracking)
{
    AuthEngine eng(10, 10);
    eng.post(0, 0, true);
    EXPECT_FALSE(eng.anyFailure());
    AuthSeq bad = eng.post(0, 0, false);
    eng.post(0, 0, true);
    EXPECT_TRUE(eng.anyFailure());
    EXPECT_EQ(eng.firstFailedSeq(), bad);
    EXPECT_EQ(eng.firstFailureCycle(), eng.doneCycle(bad));
}

TEST(AuthEngine, ExtraLatencyExtendsCompletion)
{
    AuthEngine eng(100, 100);
    AuthSeq a = eng.post(0, 50, true);
    EXPECT_EQ(eng.doneCycle(a), 150u);
}

// ------------------------------------------------------------- hash tree

namespace
{

/** Metadata port charging a fixed 100-cycle access. */
struct FixedPort final : MetaMemPort
{
    Cycle read(Addr, Cycle c) const override { return c + 100; }
    Cycle write(Addr, Cycle c) const override { return c + 100; }
};

const FixedPort fixedMem;

/** Fixed-latency port that counts reads (entry fetches). */
struct CountingPort final : MetaMemPort
{
    mutable int fetches = 0;

    Cycle
    read(Addr, Cycle c) const override
    {
        ++fetches;
        return c + 100;
    }

    Cycle write(Addr, Cycle c) const override { return c + 100; }
};

} // namespace

TEST(HashTree, VerifyFreshTreeOk)
{
    sim::SimConfig cfg;
    cfg.hashTreeEnabled = true;
    cfg.protectedBytes = 1 << 20; // small region for fast tests
    ExternalMemory ext(11);
    HashTree tree(cfg, ext);

    TreeTiming t = tree.verify(0x4000, 1000, fixedMem);
    EXPECT_TRUE(t.ok);
    EXPECT_GT(t.readyAt, 1000u);
    EXPECT_GE(t.levelsHashed, 1u);
}

TEST(HashTree, UpdateThenVerifyOk)
{
    sim::SimConfig cfg;
    cfg.hashTreeEnabled = true;
    cfg.protectedBytes = 1 << 20;
    ExternalMemory ext(12);
    HashTree tree(cfg, ext);

    std::uint8_t data[kExtLineBytes] = {9};
    ext.storeLine(0x4000, data); // counter 0 -> 1
    TreeTiming up = tree.update(0x4000, 0, fixedMem);
    EXPECT_GT(up.readyAt, 0u);

    TreeTiming v = tree.verify(0x4000, 0, fixedMem);
    EXPECT_TRUE(v.ok);
}

TEST(HashTree, StaleCounterDetected)
{
    // A counter bump without a tree update == replayed counter value.
    sim::SimConfig cfg;
    cfg.hashTreeEnabled = true;
    cfg.protectedBytes = 1 << 20;
    ExternalMemory ext(13);
    HashTree tree(cfg, ext);

    std::uint8_t data[kExtLineBytes] = {1};
    ext.storeLine(0x8000, data);
    // No tree.update: the tree still holds the all-zero default.
    TreeTiming v = tree.verify(0x8000, 0, fixedMem);
    EXPECT_FALSE(v.ok);
}

TEST(HashTree, CachedNodeShortensWalk)
{
    sim::SimConfig cfg;
    cfg.hashTreeEnabled = true;
    cfg.protectedBytes = 1 << 20;
    ExternalMemory ext(14);
    HashTree tree(cfg, ext);

    TreeTiming cold = tree.verify(0x4000, 0, fixedMem);
    TreeTiming warm = tree.verify(0x4000, 0, fixedMem);
    EXPECT_GT(cold.nodeFetches, warm.nodeFetches);
    EXPECT_LE(warm.levelsHashed, cold.levelsHashed);
    EXPECT_LT(warm.readyAt - 0, cold.readyAt - 0);
}

TEST(HashTree, LevelsMatchRegionSize)
{
    sim::SimConfig cfg;
    cfg.hashTreeEnabled = true;
    cfg.protectedBytes = 1 << 20; // 16K lines -> 2048 groups
    ExternalMemory ext(15);
    HashTree tree(cfg, ext);
    // 2048 leaf groups, arity 8: levels = 1 + ceil(log8(2048)) walk
    // levels; 8^4 = 4096 >= 2048 so 4 levels of nodes.
    EXPECT_EQ(tree.levels(), 4u);
}

// ----------------------------------------------------------------- remap

TEST(Remap, TranslateIsStableUntilShuffle)
{
    sim::SimConfig cfg;
    cfg.memoryBytes = 1 << 20;
    RemapLayer remap(cfg);

    RemapResult a = remap.translate(0x4000, 0, fixedMem);
    RemapResult b = remap.translate(0x4000, 1000, fixedMem);
    EXPECT_EQ(a.physAddr, b.physAddr);

    RemapResult shuffled = remap.shuffle(0x4000, 2000, fixedMem);
    RemapResult after = remap.translate(0x4000, 3000, fixedMem);
    EXPECT_EQ(after.physAddr, shuffled.physAddr);
}

TEST(Remap, ShuffleChangesLocation)
{
    sim::SimConfig cfg;
    cfg.memoryBytes = 1 << 26;
    RemapLayer remap(cfg);

    // With a 2^20-line space, repeated shuffles virtually never repeat.
    Addr prev = remap.translate(0x4000, 0, fixedMem).physAddr;
    int changed = 0;
    for (int i = 0; i < 16; ++i) {
        Addr next = remap.shuffle(0x4000, 0, fixedMem).physAddr;
        if (next != prev)
            ++changed;
        prev = next;
    }
    EXPECT_GE(changed, 15);
}

TEST(Remap, PhysAddrLineAlignedAndInRange)
{
    sim::SimConfig cfg;
    cfg.memoryBytes = 1 << 22;
    RemapLayer remap(cfg);
    for (int i = 0; i < 100; ++i) {
        Addr phys = remap.shuffle(Addr(i) * 64, 0, fixedMem).physAddr;
        EXPECT_EQ(phys % kExtLineBytes, 0u);
        EXPECT_LT(phys, cfg.memoryBytes);
    }
}

TEST(Remap, CacheMissFetchesEntry)
{
    sim::SimConfig cfg;
    cfg.memoryBytes = 1 << 26;
    cfg.remapCache.sizeBytes = 1024; // tiny: force misses
    RemapLayer remap(cfg);

    CountingPort counting;
    // Touch many distinct entry lines (16 entries per 64B line).
    for (int i = 0; i < 64; ++i)
        remap.translate(Addr(i) * 64 * 16, 0, counting);
    EXPECT_GT(counting.fetches, 40);

    // Re-touching the most recent entries should hit.
    counting.fetches = 0;
    remap.translate(Addr(63) * 64 * 16, 0, counting);
    EXPECT_EQ(counting.fetches, 0);
}

TEST(AuthEngine, LastArrivedByExcludesOutstanding)
{
    AuthEngine eng(148, 40);
    // Request posted at fetch initiation with arrival at cycle 1000.
    AuthSeq a = eng.post(1000, 0, true);
    EXPECT_EQ(eng.lastRequest(), a);
    // Before the data arrives, the queue is architecturally empty.
    EXPECT_EQ(eng.lastArrivedBy(500), kNoAuthSeq);
    EXPECT_EQ(eng.lastArrivedBy(999), kNoAuthSeq);
    // From the arrival cycle on, the request is visible.
    EXPECT_EQ(eng.lastArrivedBy(1000), a);
    EXPECT_EQ(eng.lastArrivedBy(5000), a);
}

TEST(AuthEngine, LastArrivedByOrdersMultiple)
{
    AuthEngine eng(148, 40);
    AuthSeq a = eng.post(100, 0, true);
    AuthSeq b = eng.post(200, 0, true);
    AuthSeq c = eng.post(300, 0, true);
    EXPECT_EQ(eng.lastArrivedBy(99), kNoAuthSeq);
    EXPECT_EQ(eng.lastArrivedBy(150), a);
    EXPECT_EQ(eng.lastArrivedBy(250), b);
    EXPECT_EQ(eng.lastArrivedBy(300), c);
}

TEST(AuthEngine, LastArrivedByMonotonicizesArrivals)
{
    AuthEngine eng(148, 40);
    // Out-of-order arrivals (bank-dependent DRAM latencies): the
    // in-order queue is still consistent — a later request's arrival
    // is clamped to at least its predecessor's.
    eng.post(500, 0, true);
    AuthSeq b = eng.post(300, 0, true); // "arrives" earlier than a
    EXPECT_EQ(eng.lastArrivedBy(400), kNoAuthSeq);
    EXPECT_EQ(eng.lastArrivedBy(500), b);
}

TEST(AuthEngine, ThroughputBoundedByInterval)
{
    AuthEngine eng(148, 40);
    // Ten back-to-back arrivals: completions spaced by the interval,
    // not by the full latency (pipelined engine).
    AuthSeq first = eng.post(0, 0, true);
    AuthSeq last = first;
    for (int i = 1; i < 10; ++i)
        last = eng.post(0, 0, true);
    EXPECT_EQ(eng.doneCycle(first), 148u);
    EXPECT_EQ(eng.doneCycle(last), 9 * 40u + 148u);
}

// ------------------------------------------------------ counter predictor

TEST(CounterPredictor, ColdRegionPredictsProvisioningCounter)
{
    CounterPredictor pred(4096, 4);
    // Fresh image: counters are 0 -> within the window.
    EXPECT_TRUE(pred.predictAndResolve(0x10000, 0));
    EXPECT_TRUE(pred.predictAndResolve(0x20000, 3));
    // Heavily-written line in a cold region: outside the window.
    EXPECT_FALSE(pred.predictAndResolve(0x30000, 100));
}

TEST(CounterPredictor, RegionHistoryTrains)
{
    CounterPredictor pred(4096, 4);
    // Writebacks in a region train its base counter.
    pred.onWriteback(0x40000, 50);
    EXPECT_TRUE(pred.predictAndResolve(0x40040, 52)); // same region
    EXPECT_FALSE(pred.predictAndResolve(0x41000, 52)); // next region
}

TEST(CounterPredictor, MispredictionRetrains)
{
    CounterPredictor pred(4096, 4);
    EXPECT_FALSE(pred.predictAndResolve(0x50000, 40));
    // The true counter retrained the region: neighbours now hit.
    EXPECT_TRUE(pred.predictAndResolve(0x50040, 41));
}

TEST(CounterPredictor, HitRateTracksOutcomes)
{
    CounterPredictor pred(4096, 4);
    pred.predictAndResolve(0x0, 0);    // hit
    pred.predictAndResolve(0x1000, 9); // miss
    EXPECT_DOUBLE_EQ(pred.hitRate(), 0.5);
}

TEST(CounterPredictor, StaleBaseWithinWindowStillHits)
{
    CounterPredictor pred(4096, 4);
    pred.onWriteback(0x60000, 10);
    // Line written 3 more times since training: still inside window.
    EXPECT_TRUE(pred.predictAndResolve(0x60000, 13));
    // 4 or more: miss.
    pred.onWriteback(0x60000, 10);
    EXPECT_FALSE(pred.predictAndResolve(0x60000, 14));
}
