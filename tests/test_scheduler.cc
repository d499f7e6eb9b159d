/**
 * @file
 * Event-driven timed-loop tests. Three contracts:
 *   - the event loop is deterministic: repeated runs of the same point
 *     produce the same run result, stall taxonomy, stat dump, and
 *     profiler segments, on several workload x policy points, and
 *     those points keep their pinned cycle and issue counts;
 *   - the interval series is exact: fed once per sample boundary
 *     across skipped idle windows, its rows tile the window and sum
 *     to the run totals (that recording it moves no result is
 *     Observability.EverySinkOnMatchesEverySinkOff's job);
 *   - the Txn timeline arena never leaks: blocks of spilled timelines
 *     return to the pool and live counts come back to baseline.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "mem/txn.hh"
#include "obs/interval.hh"
#include "sim/config_io.hh"
#include "sim/system.hh"
#include "workloads/workloads.hh"

using namespace acp;
using core::AuthPolicy;

namespace
{

sim::SimConfig
cfgFor(AuthPolicy policy)
{
    sim::SimConfig cfg;
    cfg.policy = policy;
    cfg.memoryBytes = 64ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;
    return cfg;
}

/** One measured point: run result + full stat dump + stall counters
 *  (+ the interval series when @p stats_interval is set). */
struct PointOutcome
{
    sim::RunResult run;
    std::string stats;
    obs::StallArray stalls;
    Cycle cycles = 0;
    std::uint64_t issued = 0, squashed = 0;
    std::vector<obs::IntervalSample> intervals;
};

PointOutcome
runPoint(const std::string &workload, AuthPolicy policy,
         std::uint64_t stats_interval = 0)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 1 << 20;
    sim::SimConfig cfg = cfgFor(policy);
    cfg.statsInterval = stats_interval;
    sim::System system(cfg, workloads::build(workload, params));
    system.fastForward(10000);
    PointOutcome out;
    out.run = system.measureTimed(20000, 20'000'000);
    out.stats = system.dumpStats();
    out.stalls = system.core().stallCycles();
    out.cycles = system.core().cycles();
    out.issued = system.core().stats().counterValue("issued");
    out.squashed = system.core().stats().counterValue("squashed");
    if (system.intervalRecorder())
        out.intervals = system.intervalRecorder()->samples();
    return out;
}

/** FNV-1a over the series' integer columns (ipc is derived). */
std::uint64_t
seriesDigest(const std::vector<obs::IntervalSample> &samples)
{
    std::string text;
    for (const obs::IntervalSample &s : samples) {
        text += std::to_string(s.endCycle) + ' ' +
                std::to_string(s.cycles) + ' ' + std::to_string(s.insts);
        for (std::uint64_t stall : s.stalls)
            text += ' ' + std::to_string(stall);
        text += '\n';
    }
    std::uint64_t h = 14695981039346656037ull;
    for (unsigned char c : text) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

} // namespace

// An event loop with a deterministic tie-break must be exactly
// reproducible: same point, same bits, every time. The exact
// timing of each point is pinned too (recorded from the RUU-scan
// scheduler); twolf, vortex and parser have many loads waiting on
// older stores with unknown addresses, so the ready list's parked
// loads must issue exactly when the scan would have issued them.
TEST(Scheduler, EventLoopDeterministic)
{
    struct
    {
        const char *workload;
        AuthPolicy policy;
        std::uint64_t cycles, issued, squashed;
    } points[] = {
        {"mcf", AuthPolicy::kAuthThenCommit, 561743, 20015, 0},
        {"gcc", AuthPolicy::kAuthThenIssue, 48035, 45169, 39940},
        {"twolf", AuthPolicy::kAuthThenWrite, 198260, 66556, 53420},
        {"bzip2", AuthPolicy::kCommitPlusFetch, 22975, 25160, 7469},
        {"twolf", AuthPolicy::kAuthThenCommit, 201932, 63918, 49626},
        {"vortex", AuthPolicy::kAuthThenIssue, 1002502, 20056, 0},
        {"parser", AuthPolicy::kBaseline, 187187, 20100, 0},
    };
    for (const auto &p : points) {
        PointOutcome first = runPoint(p.workload, p.policy);
        PointOutcome again = runPoint(p.workload, p.policy);

        EXPECT_EQ(first.run.insts, again.run.insts) << p.workload;
        EXPECT_EQ(first.run.cycles, again.run.cycles) << p.workload;
        EXPECT_EQ(first.run.reason, again.run.reason) << p.workload;
        EXPECT_EQ(first.cycles, again.cycles) << p.workload;
        for (unsigned s = 0; s < first.stalls.size(); ++s)
            EXPECT_EQ(first.stalls[s], again.stalls[s])
                << p.workload << " stall cause " << s;
        EXPECT_EQ(first.stats, again.stats) << p.workload;

        EXPECT_EQ(first.run.cycles, p.cycles) << p.workload;
        EXPECT_EQ(first.issued, p.issued) << p.workload;
        EXPECT_EQ(first.squashed, p.squashed) << p.workload;
    }
}

// Profiler segment decomposition must not move across runs either.
TEST(Scheduler, ProfilerSegmentsDeterministic)
{
    auto profiled = []() {
        workloads::WorkloadParams params;
        params.workingSetBytes = 1 << 20;
        sim::SimConfig cfg = cfgFor(AuthPolicy::kAuthThenCommit);
        cfg.profileEnabled = true;
        sim::System system(cfg, workloads::build("mcf", params));
        system.fastForward(10000);
        system.measureTimed(20000, 20'000'000);
        return system.pathProfile();
    };
    obs::PathProfile first = profiled();
    obs::PathProfile again = profiled();
    EXPECT_EQ(first.demandTxns, again.demandTxns);
    for (unsigned s = 0; s < obs::kNumPathSegments; ++s)
        EXPECT_EQ(first.demandSegCycles[s], again.demandSegCycles[s])
            << "segment " << s;
}

// The recorder is fed at its sample boundaries only (idle windows are
// split there, not walked per cycle). The series must still tile the
// window exactly, sum to the run totals, and match the rows of the
// per-cycle feed it replaced (digests recorded from that
// implementation). Passivity is asserted, for every sink at once, by
// Observability.EverySinkOnMatchesEverySinkOff.
TEST(Intervals, BoundaryFedSeriesIsExactAndPassive)
{
    constexpr std::uint64_t kPeriod = 1000;
    struct
    {
        const char *workload;
        AuthPolicy policy;
        std::uint64_t digest;
    } points[] = {
        {"mcf", AuthPolicy::kAuthThenCommit, 0x66dd4a2b5faf4eb3ull},
        {"gcc", AuthPolicy::kBaseline, 0x1576c6968d5a013dull},
    };
    for (const auto &p : points) {
        PointOutcome sampled = runPoint(p.workload, p.policy, kPeriod);

        const std::vector<obs::IntervalSample> &series = sampled.intervals;
        ASSERT_GE(series.size(), 2u) << p.workload;
        std::uint64_t cycles = 0, insts = 0;
        obs::StallArray stalls{};
        for (std::size_t i = 0; i < series.size(); ++i) {
            if (i + 1 < series.size()) {
                EXPECT_EQ(series[i].cycles, kPeriod)
                    << p.workload << " sample " << i;
            }
            EXPECT_LE(series[i].cycles, kPeriod) << p.workload;
            cycles += series[i].cycles;
            insts += series[i].insts;
            for (unsigned c = 0; c < obs::kNumStallCauses; ++c)
                stalls[c] += series[i].stalls[c];
        }
        EXPECT_EQ(cycles, sampled.run.cycles) << p.workload;
        EXPECT_EQ(insts, sampled.run.insts) << p.workload;
        for (unsigned c = 0; c < obs::kNumStallCauses; ++c)
            EXPECT_EQ(stalls[c], sampled.stalls[c])
                << p.workload << " stall cause " << c;
        EXPECT_EQ(seriesDigest(series), p.digest)
            << p.workload << " digest 0x" << std::hex
            << seriesDigest(series);
    }
}

TEST(Scheduler, TxnArenaNeverLeaks)
{
    const std::uint64_t live0 = mem::txnArenaStats().live;

    // Direct churn: 10k timelines, each longer than the inline
    // storage, spilled to the arena (once or twice) and destroyed.
    constexpr unsigned kInline = mem::Txn::Path::kInlineSteps;
    for (unsigned i = 0; i < 10000; ++i) {
        mem::Txn txn;
        for (unsigned s = 0; s < kInline + 1 + (i % (2 * kInline)); ++s)
            txn.note(mem::PathEvent::kRequest, Cycle(i + s), Addr(i * 64));
    }
    mem::TxnArenaStats after = mem::txnArenaStats();
    EXPECT_EQ(after.live, live0);
    EXPECT_GT(after.poolHits, 0u);

    // End-to-end churn: a timed window creates and retires real
    // transactions, and the integrity tree's node fetches make some
    // timelines spill; everything must be back in the pool afterwards.
    {
        workloads::WorkloadParams params;
        params.workingSetBytes = 1 << 20;
        sim::SimConfig cfg = cfgFor(AuthPolicy::kAuthThenCommit);
        cfg.hashTreeEnabled = true;
        sim::System system(cfg, workloads::build("mcf", params));
        system.fastForward(5000);
        const std::uint64_t allocs0 = mem::txnArenaStats().allocs;
        system.measureTimed(10000, 10'000'000);
        EXPECT_GT(mem::txnArenaStats().allocs, allocs0);
        EXPECT_EQ(mem::txnArenaStats().live, live0);
    }
    EXPECT_EQ(mem::txnArenaStats().live, live0);
}
