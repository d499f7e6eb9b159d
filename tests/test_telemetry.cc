/**
 * @file
 * Tests for the acp::obs telemetry layer: provenance manifests are
 * deterministic (identical minus timestamps), the heartbeat stream is
 * well-formed JSONL (a run shorter than one interval emits only
 * run_start/run_end), its ticks are the interval rows of the shared
 * sampler, a malformed fd:N sink spec is refused, every observability
 * sink at once leaves a run bit-identical to a silent one, the
 * sim.host.* self-metrics satisfy their partition invariants, the
 * result store counts hits/misses and carries a provenance comment,
 * and the sweep JSON gains the v3 manifest + telemetry blocks without
 * perturbing any result.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "common/json.hh"
#include "common/stats.hh"
#include "exp/request.hh"
#include "exp/result_store.hh"
#include "exp/submit.hh"
#include "mem/txn.hh"
#include "obs/heartbeat.hh"
#include "obs/manifest.hh"
#include "obs/trace.hh"
#include "sim/system.hh"
#include "workloads/workloads.hh"

using namespace acp;

namespace
{

sim::SimConfig
smallConfig()
{
    sim::SimConfig cfg;
    cfg.memoryBytes = 16ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;
    return cfg;
}

exp::Point
smallPoint(const char *workload = "mcf")
{
    exp::Point point;
    point.workload = workload;
    point.cfg = smallConfig();
    point.params.workingSetBytes = 128 * 1024;
    point.warmupInsts = 2000;
    point.measureInsts = 3000;
    return point;
}

/** Request for one workload with the smallPoint window; no store. */
exp::Request
smallRequest(const char *workload = "mcf")
{
    exp::Request req;
    workloads::WorkloadParams params;
    params.workingSetBytes = 128 * 1024;
    req.base(smallConfig()).params(params).window(2000, 3000);
    req.workload(workload);
    req.jobs = 1;
    req.store.clear();
    req.progress = false;
    return req;
}

/** RAII scratch result-store directory. */
class ScratchStore
{
  public:
    explicit ScratchStore(const char *name) : path_(name) { clear(); }
    ~ScratchStore() { clear(); }
    const std::string &path() const { return path_; }

    std::string
    indexContents() const
    {
        std::FILE *f = std::fopen((path_ + "/index.txt").c_str(), "rb");
        if (!f)
            return {};
        std::string text;
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, n);
        std::fclose(f);
        return text;
    }

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

/** RAII scratch file. */
class ScratchFile
{
  public:
    explicit ScratchFile(const char *name) : path_(name)
    {
        std::remove(path_.c_str());
    }
    ~ScratchFile() { std::remove(path_.c_str()); }
    const std::string &path() const { return path_; }

    std::string
    contents() const
    {
        std::FILE *f = std::fopen(path_.c_str(), "rb");
        if (!f)
            return {};
        std::string text;
        char buf[4096];
        std::size_t n;
        while ((n = std::fread(buf, 1, sizeof(buf), f)) > 0)
            text.append(buf, n);
        std::fclose(f);
        return text;
    }

  private:
    std::string path_;
};

/** Count occurrences of a record-type tag in a JSONL stream. */
std::size_t
countRecords(const std::string &text, const std::string &type)
{
    std::string needle = "{\"t\":\"" + type + "\"";
    std::size_t count = 0;
    for (std::size_t pos = text.find(needle); pos != std::string::npos;
         pos = text.find(needle, pos + 1))
        ++count;
    return count;
}

// ----- manifest ----------------------------------------------------------

TEST(Manifest, DeterministicMinusTimestamps)
{
    obs::Manifest a = obs::manifest();
    obs::Manifest b = obs::manifest();
    EXPECT_EQ(a.schema, "acp-manifest-v1");
    EXPECT_EQ(a.gitSha, b.gitSha);
    EXPECT_EQ(a.gitDirty, b.gitDirty);
    EXPECT_EQ(a.buildType, b.buildType);
    EXPECT_EQ(a.compiler, b.compiler);
    EXPECT_EQ(a.cxxFlags, b.cxxFlags);
    EXPECT_EQ(a.sanitize, b.sanitize);
    EXPECT_EQ(a.hostname, b.hostname);
    // Timestamps are populated (never compared for identity).
    EXPECT_FALSE(a.timestampUtc.empty());
    EXPECT_GT(a.unixTime, 0u);
}

TEST(Manifest, JsonLineAndTextCarryTheSha)
{
    obs::Manifest m = obs::manifest();
    std::string line = obs::manifestJsonLine(m);
    EXPECT_NE(line.find("\"schema\": \"acp-manifest-v1\""),
              std::string::npos);
    EXPECT_NE(line.find(m.gitSha), std::string::npos);
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_EQ(line.find('\n'), std::string::npos);

    std::string text = obs::manifestText(m);
    EXPECT_NE(text.find(m.gitSha), std::string::npos);
    EXPECT_NE(text.find(m.buildType), std::string::npos);
}

// ----- heartbeat ---------------------------------------------------------

TEST(Heartbeat, StreamIsWellFormed)
{
    // Period far below the window so ticks fire.
    ScratchFile jsonl("test_heartbeat_stream.jsonl");
    {
        auto sink = obs::Heartbeat::open(jsonl.path());
        ASSERT_NE(sink, nullptr);
        exp::Request req = smallRequest();
        req.heartbeat = sink.get();
        req.heartbeatPeriod = 500;
        exp::submit(req);
    }

    std::string text = jsonl.contents();
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(countRecords(text, "sweep_start"), 1u);
    EXPECT_EQ(countRecords(text, "run_start"), 1u);
    EXPECT_EQ(countRecords(text, "run_end"), 1u);
    EXPECT_EQ(countRecords(text, "point"), 1u);
    EXPECT_EQ(countRecords(text, "sweep_end"), 1u);
    EXPECT_GT(countRecords(text, "tick"), 0u);
    // Schema + manifest ride on sweep_start.
    EXPECT_NE(text.find("\"schema\":\"acp-heartbeat-v1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"manifest\":{"), std::string::npos);
    // One record per line, every line an object.
    EXPECT_EQ(text.back(), '\n');
}

TEST(Heartbeat, TickCyclesAreMonotone)
{
    ScratchFile jsonl("test_heartbeat_monotone.jsonl");
    {
        auto sink = obs::Heartbeat::open(jsonl.path());
        ASSERT_NE(sink, nullptr);
        exp::Request req = smallRequest();
        req.heartbeat = sink.get();
        req.heartbeatPeriod = 300;
        exp::submit(req);
    }
    // Walk the "cycle": fields of tick records in stream order.
    std::string text = jsonl.contents();
    std::uint64_t last = 0;
    std::size_t ticks = 0;
    for (std::size_t pos = text.find("{\"t\":\"tick\"");
         pos != std::string::npos;
         pos = text.find("{\"t\":\"tick\"", pos + 1)) {
        std::size_t at = text.find("\"cycle\":", pos);
        ASSERT_NE(at, std::string::npos);
        std::uint64_t cycle =
            std::strtoull(text.c_str() + at + 8, nullptr, 10);
        EXPECT_GT(cycle, last) << "tick cycles must strictly advance";
        last = cycle;
        ++ticks;
    }
    EXPECT_GT(ticks, 1u);
}

TEST(Heartbeat, RunShorterThanOneIntervalEmitsNoTicks)
{
    ScratchFile jsonl("test_heartbeat_short.jsonl");
    {
        auto sink = obs::Heartbeat::open(jsonl.path());
        ASSERT_NE(sink, nullptr);
        exp::Request req = smallRequest();
        req.heartbeat = sink.get();
        // Period far beyond the whole window: no boundary is crossed.
        req.heartbeatPeriod = 1ULL << 40;
        exp::Result res = exp::submit(req).results[0];
        EXPECT_GT(res.run.insts, 0u);
    }
    std::string text = jsonl.contents();
    EXPECT_EQ(countRecords(text, "tick"), 0u);
    EXPECT_EQ(countRecords(text, "run_start"), 1u);
    EXPECT_EQ(countRecords(text, "run_end"), 1u);
    EXPECT_EQ(countRecords(text, "sweep_end"), 1u);
}

// One sampler feeds both sinks: with equal periods, tick k is interval
// row k, landing on the same exact period boundary with the same
// deltas. Only the tail row (flushed at the window end) has no tick.
TEST(Heartbeat, TicksMatchIntervalRows)
{
    struct
    {
        const char *workload;
        std::uint64_t warmup, measure, period;
    } points[] = {
        {"gap", 5000, 5000, 100},
        {"mcf", 10000, 20000, 1000},
    };
    for (const auto &p : points) {
        ScratchFile jsonl("test_heartbeat_rows.jsonl");
        exp::Result res;
        {
            auto sink = obs::Heartbeat::open(jsonl.path());
            ASSERT_NE(sink, nullptr);
            sim::SimConfig cfg = smallConfig();
            cfg.policy = core::AuthPolicy::kAuthThenCommit;
            cfg.statsInterval = p.period;
            workloads::WorkloadParams params;
            params.workingSetBytes = 1 << 20;
            exp::Request req;
            req.base(cfg).params(params).window(p.warmup, p.measure);
            req.workload(p.workload);
            req.jobs = 1;
            req.store.clear();
            req.progress = false;
            req.heartbeat = sink.get();
            req.heartbeatPeriod = p.period;
            res = exp::submit(req).results[0];
        }
        const std::vector<obs::IntervalSample> &rows = res.intervals;

        std::vector<json::Value> ticks;
        std::istringstream text(jsonl.contents());
        for (std::string line; std::getline(text, line);) {
            json::Value rec;
            ASSERT_TRUE(json::parse(line, rec)) << line;
            const json::Value *type = rec.find("t");
            if (type && type->str == "tick")
                ticks.push_back(rec);
        }

        ASSERT_GE(ticks.size(), 10u) << p.workload;
        ASSERT_EQ(ticks.size() + 1, rows.size()) << p.workload;
        for (std::size_t k = 0; k < ticks.size(); ++k) {
            const json::Value &tick = ticks[k];
            EXPECT_EQ(tick.find("cycle")->asU64(), (k + 1) * p.period)
                << p.workload << " tick " << k;
            EXPECT_EQ(tick.find("cycle")->asU64(), rows[k].endCycle)
                << p.workload << " tick " << k;
            EXPECT_EQ(tick.find("intervalCycles")->asU64(), rows[k].cycles)
                << p.workload << " tick " << k;
            EXPECT_EQ(tick.find("intervalInsts")->asU64(), rows[k].insts)
                << p.workload << " tick " << k;
            const json::Value *stalls = tick.find("stalls");
            ASSERT_NE(stalls, nullptr);
            for (unsigned c = 0; c < obs::kNumStallCauses; ++c) {
                const json::Value *delta =
                    stalls->find(obs::stallCauseName(obs::StallCause(c)));
                EXPECT_EQ(delta ? delta->asU64() : 0, rows[k].stalls[c])
                    << p.workload << " tick " << k << " cause " << c;
            }
        }
    }
}

TEST(Heartbeat, MalformedFdSpecIsRejected)
{
    for (const char *spec : {"fd:", "fd:abc", "fd:1junk", "fd:-1"})
        EXPECT_EQ(obs::Heartbeat::open(spec), nullptr) << spec;
}

TEST(Heartbeat, PointsAndCacheSplitAccumulate)
{
    // 2-point sweep through a store: second run is fully cached, and
    // the sweep_end must say so.
    ScratchStore store("test_heartbeat_store");
    ScratchFile jsonl("test_heartbeat_sweep.jsonl");
    {
        auto sink = obs::Heartbeat::open(jsonl.path());
        exp::Request req = smallRequest();
        req.workloadNames = {"mcf", "swim"};
        req.store = store.path();
        req.heartbeat = sink.get();
        exp::submit(req);
        exp::submit(req); // all hits
    }
    std::string text = jsonl.contents();
    EXPECT_EQ(countRecords(text, "sweep_start"), 2u);
    EXPECT_EQ(countRecords(text, "point"), 4u);
    EXPECT_EQ(countRecords(text, "sweep_end"), 2u);
    // The second sweep simulated nothing.
    EXPECT_NE(text.find("\"total\":2,\"cached\":2,\"simulated\":0"),
              std::string::npos);
    EXPECT_NE(text.find("\"cacheHits\":"), std::string::npos);
}

// ----- passivity ---------------------------------------------------------

namespace
{

/** Drop the sim.host.* self-metrics: host time and core steps are
 *  meant to differ between an observed and a silent run. */
std::map<std::string, std::uint64_t>
simCounters(const std::map<std::string, std::uint64_t> &counters)
{
    std::map<std::string, std::uint64_t> out;
    for (const auto &[name, value] : counters)
        if (name.rfind("sim.host.", 0) != 0)
            out.emplace(name, value);
    return out;
}

std::string
simStatsText(const std::string &text)
{
    std::istringstream in(text);
    std::string out;
    for (std::string line; std::getline(in, line);)
        if (line.find("sim.host.") == std::string::npos)
            out += line + '\n';
    return out;
}

} // namespace

// Every observability sink is passive: a run with the trace buffer
// (all categories), interval statistics, the path profiler, the
// sim.host.* self-metrics and a heartbeat all on simulates exactly
// what a run with all of them off does.
TEST(Observability, EverySinkOnMatchesEverySinkOff)
{
    ScratchFile jsonl("test_every_sink.jsonl");
    auto sink = obs::Heartbeat::open(jsonl.path());
    ASSERT_NE(sink, nullptr);

    for (const char *workload : {"swim", "mcf+gcc"}) {
        auto run = [&](bool observed) {
            sim::SimConfig cfg = smallConfig();
            cfg.policy = core::AuthPolicy::kAuthThenCommit;
            if (observed) {
                cfg.traceMask = obs::kCatAll;
                cfg.statsInterval = 700;
                cfg.profileEnabled = true;
                cfg.hostStats = true;
            }
            exp::Request req = smallRequest(workload);
            req.base(cfg);
            req.captureStatsText = true;
            if (observed) {
                req.heartbeat = sink.get();
                req.heartbeatPeriod = 500;
            }
            return exp::submit(req).results[0];
        };
        exp::Result off = run(false);
        exp::Result on = run(true);

        EXPECT_EQ(on.run.insts, off.run.insts) << workload;
        EXPECT_EQ(on.run.cycles, off.run.cycles) << workload;
        EXPECT_EQ(on.run.ipc, off.run.ipc) << workload;
        EXPECT_EQ(on.run.reason, off.run.reason) << workload;
        EXPECT_EQ(simCounters(on.counters), simCounters(off.counters))
            << workload;
        EXPECT_EQ(simStatsText(on.statsText), simStatsText(off.statsText))
            << workload;
        // The sinks really were on.
        EXPECT_FALSE(on.intervals.empty()) << workload;
        EXPECT_TRUE(on.hasProfile) << workload;
        EXPECT_NE(on.counters.size(), simCounters(on.counters).size())
            << workload;
    }
    EXPECT_GT(countRecords(jsonl.contents(), "tick"), 0u);
}

// ----- sim.host.* self-metrics -------------------------------------------

TEST(HostStats, PartitionSanity)
{
    sim::SimConfig cfg = smallConfig();
    cfg.hostStats = true;
    // Verified fills fetch integrity-tree nodes, which make some
    // timelines outgrow their inline storage: the arena sees spills.
    cfg.policy = core::AuthPolicy::kAuthThenCommit;
    cfg.hashTreeEnabled = true;
    workloads::WorkloadParams params;
    params.workingSetBytes = 128 * 1024;
    sim::System system(cfg, workloads::build("mcf", params));
    system.fastForward(2000);
    system.measureTimed(3000, 3000 * 400);

    struct Capture : StatVisitor
    {
        std::map<std::string, std::uint64_t> counters;
        std::map<std::string, std::uint64_t> distCounts;
        void
        onCounter(const std::string &name, std::uint64_t v) override
        {
            counters[name] = v;
        }
        void
        onDistribution(const std::string &name,
                       const StatDistribution &d) override
        {
            distCounts[name] = d.count();
        }
    } cap;
    system.visitStats(cap);

    // The core was stepped at least once; the jump histogram records
    // exactly the gaps between consecutive steps. Only cores are
    // stepped, so the memory side has no rows.
    ASSERT_TRUE(cap.counters.count("sim.host.sched.core.wakes"));
    std::uint64_t wakes = cap.counters["sim.host.sched.core.wakes"];
    EXPECT_GE(wakes, 1u);
    ASSERT_TRUE(cap.distCounts.count("sim.host.sched.core.jump"));
    EXPECT_EQ(cap.distCounts["sim.host.sched.core.jump"], wakes - 1);
    EXPECT_EQ(cap.counters.count("sim.host.sched.hier.wakes"), 0u);

    // Arena pressure: live <= high water <= allocs.
    std::uint64_t allocs = cap.counters["sim.host.arena.allocs"];
    std::uint64_t live = cap.counters["sim.host.arena.live"];
    std::uint64_t hw = cap.counters["sim.host.arena.live_high_water"];
    EXPECT_LE(live, hw);
    EXPECT_LE(hw, allocs);
    EXPECT_GT(allocs, 0u);
}

TEST(HostStats, OffByDefaultAndDigestExcluded)
{
    // Off: no sim.host.* groups in the dump.
    sim::SimConfig cfg = smallConfig();
    workloads::WorkloadParams params;
    params.workingSetBytes = 128 * 1024;
    {
        sim::System system(cfg, workloads::build("mcf", params));
        system.fastForward(500);
        system.measureTimed(500, 500 * 400);
        EXPECT_EQ(system.dumpStats().find("sim.host."),
                  std::string::npos);
    }

    // Digest-excluded (like traceMask), but uncacheable.
    exp::Point plain = smallPoint();
    exp::Point host = smallPoint();
    host.cfg.hostStats = true;
    EXPECT_EQ(exp::pointDigest(plain), exp::pointDigest(host));
    EXPECT_TRUE(plain.cacheable());
    EXPECT_FALSE(host.cacheable());
}

TEST(HostStats, ArenaHighWaterIsMonotone)
{
    mem::TxnArenaStats before = mem::txnArenaStats();
    {
        // One step past the inline storage: the timeline spills.
        mem::Txn txn;
        for (Cycle c = 1; c <= mem::Txn::Path::kInlineSteps + 1; ++c)
            txn.note(mem::PathEvent::kBusGrant, c);
    }
    mem::TxnArenaStats after = mem::txnArenaStats();
    EXPECT_GE(after.liveHighWater, before.liveHighWater);
    EXPECT_GE(after.liveHighWater, 1u);
    EXPECT_LE(after.live, after.liveHighWater);
}

// ----- result store telemetry --------------------------------------------

TEST(StoreTelemetry, CountsHitsMissesAndWritesProvenance)
{
    ScratchStore store("test_store_telemetry");
    exp::Request req = smallRequest();
    req.store = store.path();

    exp::Submission first = exp::submit(req);  // miss + store
    exp::Submission second = exp::submit(req); // hit
    ASSERT_TRUE(first.telemetry.hasCacheStats);
    EXPECT_EQ(first.telemetry.cacheStats.hits, 0u);
    EXPECT_EQ(first.telemetry.cacheStats.misses, 1u);
    EXPECT_EQ(first.telemetry.cacheStats.stores, 1u);
    ASSERT_TRUE(second.telemetry.hasCacheStats);
    EXPECT_EQ(second.telemetry.cacheStats.hits, 1u);
    EXPECT_EQ(second.telemetry.cacheStats.misses, 0u);
    EXPECT_EQ(second.telemetry.cacheStats.evictions, 0u);

    // The index leads with the version header, then the provenance
    // comment — and a fresh store still loads it cleanly.
    std::string text = store.indexContents();
    EXPECT_EQ(text.rfind("acp-store-v1\n", 0), 0u);
    EXPECT_NE(text.find("\n# {\"schema\": \"acp-manifest-v1\""),
              std::string::npos);
    exp::ResultStore reload(store.path());
    EXPECT_EQ(reload.size(), 1u);
}

TEST(StoreTelemetry, EvictionCapIsPersistent)
{
    ScratchStore dir("test_store_evict");
    {
        setenv("ACP_CACHE_MAX_ENTRIES", "1", 1);
        exp::ResultStore store(dir.path());
        unsetenv("ACP_CACHE_MAX_ENTRIES");

        exp::Result result;
        result.run.insts = 1;
        store.put(std::string(64, 'a'), result);
        store.put(std::string(64, 'b'), result);
        EXPECT_EQ(store.size(), 1u);
        EXPECT_EQ(store.stats().evictions, 1u);
    }

    // The eviction is journaled: a fresh, *uncapped* store sees only
    // the surviving entry (the old flat-file cache re-served evicted
    // entries after reopen).
    exp::ResultStore reload(dir.path());
    EXPECT_EQ(reload.size(), 1u);
    exp::Result out;
    EXPECT_FALSE(reload.lookup(std::string(64, 'a'), out));
    EXPECT_TRUE(reload.lookup(std::string(64, 'b'), out));
    EXPECT_EQ(out.run.insts, 1u);
}

// ----- sweep JSON v3 -----------------------------------------------------

TEST(SweepJson, CarriesManifestAndTelemetry)
{
    ScratchFile json("test_sweep_v3.json");
    exp::Submission sub = exp::submit(smallRequest());
    const std::vector<exp::Point> &points = sub.points;
    const std::vector<exp::Result> &results = sub.results;

    const exp::SweepTelemetry &tel = sub.telemetry;
    EXPECT_EQ(tel.total, 1u);
    EXPECT_EQ(tel.cached, 0u);
    EXPECT_EQ(tel.simulated, 1u);
    EXPECT_GT(tel.wallMax, 0.0);
    EXPECT_GE(tel.wallP90, tel.wallP50);

    ASSERT_TRUE(exp::writeJson(json.path(), points, results, &tel));
    std::string text = json.contents();
    EXPECT_NE(text.find("\"version\": \"acp-exp-v3\""),
              std::string::npos);
    EXPECT_NE(text.find("\"manifest\": {"), std::string::npos);
    EXPECT_NE(text.find("\"schema\": \"acp-manifest-v1\""),
              std::string::npos);
    EXPECT_NE(text.find("\"telemetry\": {"), std::string::npos);
    EXPECT_NE(text.find("\"pointWallP50\":"), std::string::npos);

    // Without a telemetry block the manifest still rides along.
    ScratchFile plain("test_sweep_v3_plain.json");
    ASSERT_TRUE(exp::writeJson(plain.path(), points, results));
    std::string plain_text = plain.contents();
    EXPECT_NE(plain_text.find("\"manifest\": {"), std::string::npos);
    EXPECT_EQ(plain_text.find("\"telemetry\""), std::string::npos);
}

} // namespace
