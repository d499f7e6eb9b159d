/**
 * @file
 * Tests for the structured trace subsystem: the ring buffer and its
 * category mask, trace determinism, the Chrome trace-event JSON sink, and
 * the agreement between traced authentication spans and the auth
 * engine's verify_latency statistic.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "obs/trace.hh"
#include "obs/trace_json.hh"
#include "sim/system.hh"
#include "workloads/workloads.hh"

using namespace acp;
using core::AuthPolicy;

namespace
{

sim::SimConfig
smallConfig(AuthPolicy policy, std::uint32_t trace_mask)
{
    sim::SimConfig cfg;
    cfg.policy = policy;
    cfg.memoryBytes = 16ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;
    cfg.traceMask = trace_mask;
    return cfg;
}

workloads::WorkloadParams
smallParams()
{
    workloads::WorkloadParams params;
    params.workingSetBytes = 128 * 1024;
    return params;
}

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

  private:
    std::string path_;
};

} // namespace

TEST(TraceBuffer, MaskFiltersCategories)
{
    obs::TraceBuffer buf(obs::kCatAuth);
    buf.record(obs::TraceEventKind::kCommit, 1, 0x1000);     // pipeline
    buf.record(obs::TraceEventKind::kAuthRequest, 2, 7, 64); // auth
    buf.record(obs::TraceEventKind::kFetchGateBegin, 3, 1);  // gate

    ASSERT_EQ(buf.size(), 1u);
    EXPECT_EQ(buf.events()[0].kind, obs::TraceEventKind::kAuthRequest);
    EXPECT_TRUE(buf.wants(obs::kCatAuth));
    EXPECT_FALSE(buf.wants(obs::kCatPipeline));
}

TEST(TraceBuffer, RingKeepsNewestOldestFirst)
{
    obs::TraceBuffer buf(obs::kCatAll, /*capacity=*/4);
    for (std::uint64_t i = 0; i < 6; ++i)
        buf.record(obs::TraceEventKind::kCommit, i, /*pc=*/0x1000 + i);

    EXPECT_EQ(buf.recorded(), 6u);
    ASSERT_EQ(buf.size(), 4u);
    std::vector<obs::TraceEvent> events = buf.events();
    // Events 0 and 1 fell out of the ring; 2..5 remain oldest-first.
    for (std::uint64_t i = 0; i < 4; ++i) {
        EXPECT_EQ(events[i].cycle, i + 2);
        EXPECT_EQ(events[i].a, 0x1000 + i + 2);
    }
}

TEST(Trace, DeterministicAcrossIdenticalRuns)
{
    std::vector<obs::TraceEvent> first;
    std::vector<obs::TraceEvent> second;
    for (std::vector<obs::TraceEvent> *sink : {&first, &second}) {
        sim::System system(
            smallConfig(AuthPolicy::kAuthThenCommit, obs::kCatAll),
            workloads::build("mcf", smallParams()));
        system.fastForward(2000);
        system.measureTimed(2000, 2000 * 400);
        ASSERT_NE(system.traceBuffer(), nullptr);
        *sink = system.traceBuffer()->events();
    }
    ASSERT_FALSE(first.empty());
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i)
        ASSERT_TRUE(first[i] == second[i]) << "event " << i << " differs";
}

TEST(Trace, MaskGatesTheBuffer)
{
    // traceMask == 0 builds no buffer at all; kCatAll records events.
    // That tracing moves no result is asserted, for every sink at
    // once, by Observability.EverySinkOnMatchesEverySinkOff.
    {
        sim::System system(
            smallConfig(AuthPolicy::kAuthThenCommit, 0),
            workloads::build("swim", smallParams()));
        system.fastForward(2000);
        system.measureTimed(3000, 3000 * 400);
        EXPECT_EQ(system.traceBuffer(), nullptr);
    }
    {
        sim::System system(
            smallConfig(AuthPolicy::kAuthThenCommit, obs::kCatAll),
            workloads::build("swim", smallParams()));
        system.fastForward(2000);
        system.measureTimed(3000, 3000 * 400);
        ASSERT_NE(system.traceBuffer(), nullptr);
        EXPECT_GT(system.traceBuffer()->recorded(), 0u);
    }
}

TEST(Trace, AuthSpansMatchVerifyLatencyStat)
{
    // The data-arrive -> verify-done span the JSON sink draws IS the
    // auth engine's verify_latency sample, request for request. No
    // fast-forward: buffer and statistics then cover the same window.
    sim::System system(
        smallConfig(AuthPolicy::kAuthThenCommit, obs::kCatAuth),
        workloads::build("mcf", smallParams()));
    system.measureTimed(2000, 2000 * 400);

    const obs::TraceBuffer *buf = system.traceBuffer();
    ASSERT_NE(buf, nullptr);
    ASSERT_EQ(std::uint64_t(buf->size()), buf->recorded())
        << "ring overflow would orphan spans; shrink the run";

    std::map<std::uint64_t, Cycle> arrive; // auth seq -> data on-chip
    std::uint64_t spans = 0;
    std::uint64_t span_sum = 0;
    buf->forEach([&](const obs::TraceEvent &ev) {
        if (ev.kind == obs::TraceEventKind::kAuthDataArrive) {
            arrive[ev.a] = ev.cycle;
        } else if (ev.kind == obs::TraceEventKind::kAuthVerifyDone) {
            auto it = arrive.find(ev.a);
            ASSERT_NE(it, arrive.end()) << "verify without arrival";
            ASSERT_GE(ev.cycle, it->second);
            ++spans;
            span_sum += ev.cycle - it->second;
        }
    });
    ASSERT_GT(spans, 0u);

    class Capture : public StatVisitor
    {
      public:
        void
        onAverage(const std::string &name, const StatAverage &a) override
        {
            if (name == "auth.verify_latency")
                avg = a;
        }
        StatAverage avg;
    } capture;
    system.visitStats(capture);

    EXPECT_EQ(capture.avg.count(), spans);
    EXPECT_DOUBLE_EQ(capture.avg.sum(), double(span_sum));
}

TEST(TraceJson, ChromeTraceIsWellFormed)
{
    ScratchFile file("test_trace_chrome.json");
    sim::System system(
        smallConfig(AuthPolicy::kCommitPlusFetch, obs::kCatAll),
        workloads::build("mcf", smallParams()));
    system.fastForward(1000);
    system.measureTimed(1000, 1000 * 400);
    ASSERT_TRUE(obs::writeChromeTrace(*system.traceBuffer(), file.path()));

    std::FILE *f = std::fopen(file.path().c_str(), "r");
    ASSERT_NE(f, nullptr);
    std::string text;
    char chunk[4096];
    std::size_t n;
    while ((n = std::fread(chunk, 1, sizeof(chunk), f)) > 0)
        text.append(chunk, n);
    std::fclose(f);

    // Structural sanity a JSON parser would also enforce: balanced
    // braces/brackets (no string in the output contains either), an
    // even quote count, and the Chrome trace framing keys.
    long depth = 0;
    std::uint64_t quotes = 0;
    for (char c : text) {
        if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
        else if (c == '"')
            ++quotes;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_EQ(quotes % 2, 0u);
    EXPECT_EQ(text.front(), '{');
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(text.find("\"displayTimeUnit\""), std::string::npos);
    EXPECT_NE(text.find("\"auth.verify\""), std::string::npos);
    // Async span begin/end pairing: equal counts per phase letter.
    auto count = [&](const char *needle) {
        std::uint64_t hits = 0;
        for (std::size_t at = text.find(needle); at != std::string::npos;
             at = text.find(needle, at + 1))
            ++hits;
        return hits;
    };
    EXPECT_EQ(count("\"ph\":\"b\""), count("\"ph\":\"e\""));
}
