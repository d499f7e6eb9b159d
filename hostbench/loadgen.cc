/**
 * @file
 * Load generator of the host-time benchmark (see README.md).
 *
 * One process runs one workload as a closed loop: it repeats the
 * workload's pass (a fixed op list) until --seconds have elapsed and
 * streams one JSONL record per op, per pass and per check to --out.
 * run.py turns the records into metrics and compares results with
 * golden.json.
 *
 * With --trace the load generator instead runs one untraced pass through the
 * public entry points and then one step-through pass that calls the
 * layers one at a time, in the order exp::simulatePoint calls them,
 * recording a span around each call. The two passes must produce
 * byte-identical results.
 */

#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "core/auth_policy.hh"
#include "cpu/ooo_core.hh"
#include "crypto/sha256.hh"
#include "exp/request.hh"
#include "exp/result_codec.hh"
#include "exp/result_store.hh"
#include "exp/submit.hh"
#include "mem/txn.hh"
#include "obs/heartbeat.hh"
#include "obs/manifest.hh"
#include "obs/path_report.hh"
#include "sim/config_io.hh"
#include "sim/system.hh"
#include "workloads/workloads.hh"

using namespace acp;

namespace
{

/** Worker threads of every in-process pass: all load comes from one
 *  process with at most 2 threads. */
constexpr unsigned kJobs = 2;
/** Resubmissions per figure_rerun pass. */
constexpr unsigned kRerunsPerPass = 100;

double
now()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

struct Options
{
    std::string workload;
    std::uint64_t seed = 42;
    double seconds = 10.0;
    std::string tmp;
    std::string out;
    std::string acpsim;
    bool setupOnly = false;
    bool trace = false;
};

Options opt;

/** Data seed 42 maps to the repo's default rng seed 12345. */
std::uint64_t
rngSeed()
{
    return 12345 + (opt.seed - 42);
}

// ----- JSONL output ----------------------------------------------------

std::FILE *out_file = nullptr;
std::mutex out_mutex;

void
emit(const std::string &line)
{
    std::lock_guard<std::mutex> lock(out_mutex);
    std::fputs(line.c_str(), out_file);
    std::fputc('\n', out_file);
    std::fflush(out_file);
}

std::string
num(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.9f", v);
    return buf;
}

std::string
num(std::uint64_t v)
{
    return std::to_string(v);
}

void
check(bool ok, const std::string &what)
{
    if (!ok)
        emit("{\"t\":\"check\",\"ok\":false,\"msg\":" + json::quote(what) +
             "}");
}

// ----- results ---------------------------------------------------------

/** What golden.json records per op: insts, cycles, reason and a
 *  SHA-256 over the full counter map. */
struct Fingerprint
{
    std::uint64_t insts = 0;
    std::uint64_t cycles = 0;
    double ipc = 0.0;
    std::string reason;
    std::string fp;
};

std::string
hex(const std::array<std::uint8_t, 32> &digest)
{
    static const char *digits = "0123456789abcdef";
    std::string s;
    for (std::uint8_t b : digest) {
        s += digits[b >> 4];
        s += digits[b & 15];
    }
    return s;
}

Fingerprint
fingerprint(std::uint64_t insts, std::uint64_t cycles, double ipc,
            const std::string &reason,
            const std::map<std::string, std::uint64_t> &counters)
{
    std::string text = "insts=" + num(insts) + "\ncycles=" + num(cycles) +
                       "\nreason=" + reason + "\n";
    for (const auto &[name, value] : counters)
        text += name + "=" + num(value) + "\n";
    auto d = crypto::Sha256::digest(
        reinterpret_cast<const std::uint8_t *>(text.data()), text.size());
    return {insts, cycles, ipc, reason, hex(d)};
}

bool
hostStat(const std::string &name)
{
    return name.rfind("sim.host.", 0) == 0;
}

/** Simulated results only: the step-through's sim.host.* self-metrics
 *  are left out. */
Fingerprint
fingerprint(const exp::Result &r)
{
    std::map<std::string, std::uint64_t> counters;
    for (const auto &[name, v] : r.counters)
        if (!hostStat(name))
            counters.emplace(name, v);
    return fingerprint(r.run.insts, r.run.cycles, r.run.ipc,
                       cpu::stopReasonName(r.run.reason), counters);
}

std::string
opRecord(const char *type, unsigned pass, const std::string &key,
         double start, double end, const std::string &err,
         const Fingerprint *f)
{
    std::string s = std::string("{\"t\":\"") + type +
                    "\",\"pass\":" + num(std::uint64_t(pass)) +
                    ",\"key\":" + json::quote(key) +
                    ",\"start\":" + num(start) + ",\"end\":" + num(end) +
                    ",\"ok\":" + (err.empty() ? "true" : "false") +
                    ",\"err\":" + json::quote(err);
    if (f)
        s += ",\"insts\":" + num(f->insts) + ",\"cycles\":" +
             num(f->cycles) + ",\"ipc\":" + num(f->ipc) +
             ",\"reason\":" + json::quote(f->reason) +
             ",\"fp\":" + json::quote(f->fp);
    return s + "}";
}

std::string
key(const exp::Point &p)
{
    return p.workload + "/" + core::policyName(p.cfg.policy);
}

/** Drop the sim.host.* self-metrics, which only the step-through run
 *  collects. */
void
stripHostStats(exp::Result &r)
{
    auto strip = [](auto &m) {
        for (auto it = m.begin(); it != m.end();)
            it = hostStat(it->first) ? m.erase(it) : std::next(it);
    };
    strip(r.counters);
    strip(r.averages);
    strip(r.distributions);
}

/** The codec line of @p r minus its sim.host.* self-metrics. */
std::string
resultLine(exp::Result r)
{
    stripHostStats(r);
    return exp::encodeResultTokens(r);
}

/** Intervals and the path profile, rendered for identity checks. */
std::string
observedText(const exp::Result &r)
{
    std::string s;
    for (const obs::IntervalSample &iv : r.intervals) {
        s += num(std::uint64_t(iv.endCycle)) + " " + num(iv.insts);
        for (auto c : iv.stalls)
            s += " " + num(std::uint64_t(c));
        s += "\n";
    }
    if (r.hasProfile) {
        char *buf = nullptr;
        std::size_t len = 0;
        std::FILE *f = open_memstream(&buf, &len);
        obs::writePathProfileJson(f, r.profile, "");
        std::fclose(f);
        s.append(buf, len);
        std::free(buf);
    }
    return s;
}

// ----- workloads -------------------------------------------------------

std::vector<core::AuthPolicy>
paperPolicies()
{
    using core::AuthPolicy;
    return {AuthPolicy::kBaseline,         AuthPolicy::kAuthThenIssue,
            AuthPolicy::kAuthThenWrite,    AuthPolicy::kAuthThenCommit,
            AuthPolicy::kAuthThenFetch,    AuthPolicy::kCommitPlusFetch,
            AuthPolicy::kCommitPlusObfuscation};
}

/** The bench paper config: Table 3 with 64 MiB memory, 256 KiB L2. */
sim::SimConfig
paperConfig()
{
    sim::SimConfig cfg;
    cfg.memoryBytes = 64ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;
    cfg.rngSeed = rngSeed();
    return cfg;
}

exp::Request
request(const sim::SimConfig &cfg, std::uint64_t ws,
        const std::vector<std::string> &names,
        const std::vector<core::AuthPolicy> &policies,
        std::uint64_t warmup, std::uint64_t measure,
        std::uint64_t cycles_per_inst = 400)
{
    workloads::WorkloadParams params;
    params.workingSetBytes = ws;
    params.seed = opt.seed;
    exp::Request req;
    req.base(cfg).params(params).window(warmup, measure, cycles_per_inst);
    req.workloads(names);
    for (core::AuthPolicy p : policies)
        req.variant(core::policyName(p),
                    [p](sim::SimConfig &c) { c.policy = p; });
    req.jobs = kJobs;
    req.progress = false;
    req.store.clear();
    return req;
}

std::vector<std::string>
allNames()
{
    std::vector<std::string> names;
    for (const workloads::WorkloadInfo &info : workloads::catalog())
        names.push_back(info.name);
    return names;
}

/** 18 kernels x 7 policies at the default scale. */
exp::Request
paperSweep()
{
    return request(paperConfig(), 2ULL << 20, allNames(), paperPolicies(),
                   30000, 60000);
}

/** The same 126 points at a tiny window (figure_rerun's store). */
exp::Request
rerunFill()
{
    return request(paperConfig(), 2ULL << 20, allNames(), paperPolicies(),
                   1000, 2000);
}

/**
 * Long timed windows with every observability sink on. The kernels
 * are listed longest first, so that the pass's tail on 2 threads is
 * short and steady.
 */
exp::Request
longWindow(bool observed)
{
    sim::SimConfig cfg = paperConfig();
    cfg.profileEnabled = observed;
    cfg.statsInterval = observed ? 10000 : 0;
    return request(cfg, 2ULL << 20,
                   {"vortex", "twolf", "mcf", "gcc", "parser", "bzip2"},
                   {core::AuthPolicy::kBaseline,
                    core::AuthPolicy::kAuthThenCommit},
                   30000, 480000);
}

constexpr std::uint64_t kColdWs = 8ULL << 20;
constexpr std::uint64_t kColdWarmup = 2000;
constexpr std::uint64_t kColdInsts = 4000;

/** What one `acpsim <w> --jobs 1` invocation simulates (acpsim's
 *  256 MiB default memory, 1000 cycles per instruction cap). */
exp::Request
coldStart()
{
    sim::SimConfig cfg;
    cfg.memoryBytes = 256ULL << 20;
    cfg.protectedBytes = cfg.memoryBytes;
    cfg.rngSeed = rngSeed();
    return request(cfg, kColdWs, allNames(), {core::AuthPolicy::kBaseline},
                   kColdWarmup, kColdInsts, 1000);
}

// ----- process accounting ----------------------------------------------

double
cpuSeconds()
{
    double total = 0;
    for (int who : {RUSAGE_SELF, RUSAGE_CHILDREN}) {
        rusage ru{};
        getrusage(who, &ru);
        total += double(ru.ru_utime.tv_sec) + ru.ru_utime.tv_usec * 1e-6 +
                 double(ru.ru_stime.tv_sec) + ru.ru_stime.tv_usec * 1e-6;
    }
    return total;
}

std::uint64_t
fileBytes(const std::string &path)
{
    struct stat st{};
    return ::stat(path.c_str(), &st) == 0 ? std::uint64_t(st.st_size) : 0;
}

void
copyFile(const std::string &from, const std::string &to)
{
    std::ifstream in(from, std::ios::binary);
    std::ofstream out(to, std::ios::binary | std::ios::trunc);
    out << in.rdbuf();
}

/** Wait for @p pid: its exit status, 128 + the signal that ended it,
 *  or -1 when it cannot be waited for. */
int
waitFor(pid_t pid)
{
    int status = 0;
    while (waitpid(pid, &status, 0) < 0)
        if (errno != EINTR)
            return -1;
    return WIFEXITED(status) ? WEXITSTATUS(status)
                             : 128 + WTERMSIG(status);
}

/** Run @p argv with stdout/stderr appended to @p log (the calling
 *  process must be single-threaded); see waitFor() for the result. */
int
spawn(const std::vector<std::string> &argv, const std::string &log)
{
    std::fflush(nullptr);
    pid_t pid = fork();
    if (pid == 0) {
        std::FILE *f = std::fopen(log.c_str(), "a");
        if (f) {
            dup2(fileno(f), 1);
            dup2(fileno(f), 2);
        }
        std::vector<char *> args;
        for (const std::string &a : argv)
            args.push_back(const_cast<char *>(a.c_str()));
        args.push_back(nullptr);
        execv(args[0], args.data());
        _exit(127);
    }
    return pid < 0 ? -1 : waitFor(pid);
}

/** Run @p fn in a forked child, so that a panic there fails one op
 *  and not the benchmark (single-threaded callers only). */
int
inChild(const std::function<void()> &fn)
{
    std::fflush(nullptr);
    pid_t pid = fork();
    if (pid == 0) {
        fn();
        std::fflush(nullptr);
        _exit(0);
    }
    return pid < 0 ? -1 : waitFor(pid);
}

// ----- spans -----------------------------------------------------------

/** In-memory span log of the step-through run. */
class Tracer
{
  public:
    /** Span ids; a forked child continues from its own base. */
    std::atomic<std::uint64_t> nextId{1};
    std::string phase = "timed";

    struct Span
    {
        std::string name;
        double start = 0;
        double end = 0;
        std::uint64_t id = 0;
        std::uint64_t parent = 0;
        std::uint64_t point = 0;
        unsigned tid = 0;
        std::string phase;
    };

    /** RAII span around one call into a layer. */
    class Scope
    {
      public:
        Scope(Tracer &t, const char *name, std::uint64_t parent,
              std::uint64_t point, unsigned tid, const std::string &phase)
            : tracer_(t)
        {
            span_.name = name;
            span_.id = t.nextId.fetch_add(1);
            span_.parent = parent;
            span_.point = point;
            span_.tid = tid;
            span_.phase = phase;
            span_.start = now();
        }
        ~Scope()
        {
            span_.end = now();
            tracer_.add(span_);
        }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;
        std::uint64_t id() const { return span_.id; }
        double start() const { return span_.start; }

      private:
        Tracer &tracer_;
        Span span_;
    };

    void
    add(const Span &s)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        spans_.push_back(s);
    }

    /** Write and forget every span recorded so far. */
    void
    flush()
    {
        std::vector<Span> spans;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            spans.swap(spans_);
        }
        for (const Span &s : spans)
            emit("{\"t\":\"span\",\"name\":" + json::quote(s.name) +
                 ",\"id\":" + num(s.id) + ",\"parent\":" + num(s.parent) +
                 ",\"point\":" + num(s.point) + ",\"tid\":" +
                 num(std::uint64_t(s.tid)) + ",\"phase\":\"" + s.phase +
                 "\",\"start\":" + num(s.start) + ",\"end\":" +
                 num(s.end) + "}");
    }

  private:
    std::mutex mutex_;
    std::vector<Span> spans_;
};

Tracer tracer;

/** Per-pass layer counts of the step-through run. */
class Layers
{
  public:
    void
    add(const std::string &name, double v)
    {
        std::lock_guard<std::mutex> lock(mutex_);
        values_[name] += v;
    }

    void
    flush()
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[name, v] : values_)
            emit("{\"t\":\"layer\",\"name\":" + json::quote(name) +
                 ",\"value\":" + num(v) + "}");
        values_.clear();
    }

  private:
    std::mutex mutex_;
    std::map<std::string, double> values_;
};

Layers layers;

/** Same capture as exp::simulatePoint: every statistic, typed. */
class Capture : public StatVisitor
{
  public:
    explicit Capture(exp::Result &out) : out_(out) {}

    void
    onCounter(const std::string &name, std::uint64_t value) override
    {
        out_.counters[name] = value;
    }

    void
    onAverage(const std::string &name, const StatAverage &avg) override
    {
        out_.averages[name] = {avg.count(), avg.sum(), avg.min(),
                               avg.max()};
    }

    void
    onDistribution(const std::string &name,
                   const StatDistribution &dist) override
    {
        out_.distributions[name] = {dist.count(), dist.sum(), dist.min(),
                                    dist.max(), dist.buckets()};
    }

  private:
    exp::Result &out_;
};

/** What one step-through point produced. */
struct Stepped
{
    /** The simulated result, its sim.host.* self-metrics stripped. */
    exp::Result result;
    /** Its codec line: the payload the store holds. */
    std::string line;
    double measureSeconds = 0;
    /** Host counts that must repeat when the point is stepped again. */
    std::uint64_t coreWakes = 0;
    std::uint64_t linesSealed = 0;
    std::uint64_t dataBytes = 0;
};

/** sim.host.sched.core.wakes, or the sum over the
 *  sim.host.sched.cpuN.core.wakes of a multi-core point. */
std::uint64_t
coreWakes(const exp::Result &r)
{
    const std::string wakes = ".core.wakes";
    std::uint64_t n = 0;
    for (const auto &[name, v] : r.counters)
        if (name.rfind("sim.host.sched.", 0) == 0 &&
            name.size() > wakes.size() &&
            name.compare(name.size() - wakes.size(), wakes.size(), wakes) ==
                0)
            n += v;
    return n;
}

/**
 * exp::simulatePoint, one layer call at a time, each inside a span,
 * plus the store digest/lookup/put that submit does around it. The
 * System runs with hostStats on so the wake counts are visible; they
 * are stripped before anything is encoded, compared or stored.
 * exp.encode times the codec on its own; put() encodes the result
 * again, as it does in submit.
 */
Stepped
stepPoint(const exp::Point &point, std::uint64_t point_id, unsigned tid,
          exp::ResultStore *store, obs::Heartbeat *heartbeat,
          bool probe = false)
{
    using Scope = Tracer::Scope;
    const std::string phase = probe ? "probe" : tracer.phase;
    const bool record_layers = !probe;
    Stepped out;
    exp::Result &result = out.result;
    Scope root(tracer, "point", 0, point_id, tid, phase);
    const std::uint64_t rid = root.id();
    auto count = [&](const std::string &name, double v) {
        if (record_layers)
            layers.add(name, v);
    };

    std::string digest;
    if (store && point.cacheable()) {
        {
            Scope s(tracer, "exp.digest", rid, point_id, tid, phase);
            digest = exp::pointDigest(point);
        }
        Scope s(tracer, "exp.store_lookup", rid, point_id, tid, phase);
        exp::Result ignored;
        check(!store->lookup(digest, ignored),
              "step-through store hit on a fresh store: " + key(point));
    }

    const unsigned n_cores = std::max(1u, point.cfg.numCores);
    std::vector<isa::Program> progs;
    {
        Scope s(tracer, "workloads.build", rid, point_id, tid, phase);
        for (unsigned i = 0; i < n_cores; ++i) {
            const std::string &name =
                i < point.cfg.coreWorkloads.size() &&
                        !point.cfg.coreWorkloads[i].empty()
                    ? point.cfg.coreWorkloads[i]
                    : point.workload;
            progs.push_back(workloads::build(name, point.params));
        }
    }
    for (const isa::Program &prog : progs)
        for (const isa::DataSegment &seg : prog.data)
            out.dataBytes += seg.bytes.size();
    count("workloads.data_bytes", double(out.dataBytes));

    sim::SimConfig cfg = point.cfg;
    cfg.hostStats = true;
    std::unique_ptr<sim::System> system;
    {
        Scope s(tracer, "sim.construct", rid, point_id, tid, phase);
        system = std::make_unique<sim::System>(cfg, std::move(progs));
    }
    out.linesSealed = system->hier().ctrl().externalMemory().linesTouched();
    count("secmem.lines_sealed", double(out.linesSealed));
    {
        Scope s(tracer, "sim.fast_forward", rid, point_id, tid, phase);
        count("sim.warmup_insts",
              double(system->fastForward(point.warmupInsts)));
    }

    std::vector<std::unique_ptr<obs::HeartbeatRun>> hb_runs;
    {
        Scope s(tracer, "sim.create_cores", rid, point_id, tid, phase);
        for (unsigned i = 0; i < n_cores; ++i)
            system->core(i);
        if (heartbeat) {
            const std::string label = core::policyName(point.cfg.policy);
            for (unsigned i = 0; i < n_cores; ++i) {
                hb_runs.push_back(std::make_unique<obs::HeartbeatRun>(
                    *heartbeat, point.workload,
                    n_cores == 1 ? label
                                 : label + "#cpu" + std::to_string(i),
                    50000));
                system->setHeartbeat(hb_runs.back().get(), i);
                hb_runs.back()->begin(system->core(i).cycles());
            }
        }
    }
    {
        Scope s(tracer, "sim.measure_timed", rid, point_id, tid, phase);
        result.run =
            system->measureTimed(point.measureInsts, point.maxCycles());
        for (unsigned i = 0; i < hb_runs.size(); ++i) {
            hb_runs[i]->end(system->core(i).cycles(),
                            system->core(i).instsCommitted(),
                            result.run.ipc,
                            cpu::stopReasonName(result.run.reason));
            system->setHeartbeat(nullptr, i);
        }
        out.measureSeconds = now() - s.start();
    }
    {
        Scope s(tracer, "obs.capture", rid, point_id, tid, phase);
        Capture capture(result);
        system->visitStats(capture);
        if (const obs::IntervalRecorder *rec = system->intervalRecorder()) {
            result.intervals = rec->samples();
            result.intervalPeriod = rec->period();
        }
    }
    {
        Scope s(tracer, "obs.path_profile", rid, point_id, tid, phase);
        if (point.cfg.profileEnabled) {
            result.profile = system->pathProfile();
            result.hasProfile = true;
        }
    }
    count("secmem.lines_materialized",
          double(system->hier().ctrl().externalMemory().linesTouched()));
    out.coreWakes = coreWakes(result);
    stripHostStats(result);
    {
        Scope s(tracer, "exp.encode", rid, point_id, tid, phase);
        out.line = exp::encodeResultTokens(result);
    }
    {
        Scope s(tracer, "exp.store_put", rid, point_id, tid, phase);
        if (store && point.cacheable())
            store->put(digest, result);
    }
    {
        Scope s(tracer, "sim.destroy", rid, point_id, tid, phase);
        system.reset();
    }

    const auto &c = result.counters;
    auto counter = [&](const char *name) {
        auto it = c.find(name);
        return it == c.end() ? 0.0 : double(it->second);
    };
    count("cpu.committed", counter("core.committed"));
    count("cpu.cycles", counter("core.cycles"));
    count("cpu.issued", counter("core.issued"));
    count("cpu.squashed", counter("core.squashed"));
    count("secmem.extmem_fetches", counter("extmem.fetches"));
    count("secmem.extmem_stores", counter("extmem.stores"));
    count("secmem.auth_requests", counter("auth.requests"));
    count("cache.l2_misses", counter("l2.misses"));
    count("mem.bus_grants", counter("bus.grants"));
    count("mem.dram_accesses", counter("dram.accesses"));
    count("sim.core_wakes", double(out.coreWakes));
    count("sim.timed_insts", double(result.run.insts));
    count("sim.timed_cycles", double(result.run.cycles));
    auto occ = result.distributions.find("core.ruu_occupancy");
    if (occ != result.distributions.end()) {
        count("cpu.ruu_occupancy_sum", double(occ->second.sum));
        count("cpu.ruu_occupancy_samples", double(occ->second.count));
    }
    return out;
}

/**
 * Step @p points through on kJobs threads; results align. A probe pass
 * records spans but no layer counts. The transaction arena's counter
 * is process-wide, so mem.txn_allocs is taken around the whole pass.
 */
std::vector<Stepped>
stepPass(const std::vector<exp::Point> &points, exp::ResultStore *store,
         obs::Heartbeat *heartbeat, bool probe = false)
{
    std::vector<Stepped> out(points.size());
    std::atomic<std::size_t> next{0};
    const auto arena0 = mem::txnArenaStats().allocs;
    const std::uint64_t id0 = probe ? 100000 : 0;
    auto worker = [&](unsigned tid) {
        for (std::size_t i; (i = next.fetch_add(1)) < points.size();) {
            const double t0 = now();
            out[i] = stepPoint(points[i], id0 + i + 1, tid, store,
                               heartbeat, probe);
            if (!probe && tracer.phase == "timed")
                layers.add("pass.busy_s", now() - t0);
        }
    };
    std::vector<std::thread> pool;
    for (unsigned t = 0; t < kJobs; ++t)
        pool.emplace_back(worker, t);
    for (std::thread &t : pool)
        t.join();
    if (!probe)
        layers.add("mem.txn_allocs",
                   double(mem::txnArenaStats().allocs - arena0));
    return out;
}

/** The host counts must repeat exactly: step one point twice. No other
 *  thread steps points meanwhile, so the arena delta is the point's. */
void
repeatHostCounts(const exp::Point &point)
{
    Stepped s[2];
    std::uint64_t allocs[2];
    for (int k = 0; k < 2; ++k) {
        auto a0 = mem::txnArenaStats().allocs;
        s[k] = stepPoint(point, 200000 + k, 0, nullptr, nullptr, true);
        allocs[k] = mem::txnArenaStats().allocs - a0;
    }
    check(s[0].coreWakes == s[1].coreWakes && allocs[0] == allocs[1] &&
              s[0].linesSealed == s[1].linesSealed &&
              s[0].dataBytes == s[1].dataBytes && s[0].line == s[1].line,
          "host counts or results did not repeat on " + key(point));
}

/** Observability cost probe on one point: every sink on vs off. */
void
obsProbe(const exp::Point &plain)
{
    exp::Point observed = plain;
    observed.cfg.profileEnabled = true;
    observed.cfg.statsInterval = 10000;
    Stepped a = stepPoint(plain, 300000, 0, nullptr, nullptr, true);
    Stepped b = stepPoint(observed, 300001, 0, nullptr, nullptr, true);
    layers.add("obs.plain_measure_s", a.measureSeconds);
    layers.add("obs.observed_measure_s", b.measureSeconds);
    check(a.line == b.line,
          "observability changed the result of " + key(plain));
}

void
storeStats(const exp::ResultStore &store)
{
    exp::ResultStore::Stats st = store.stats();
    layers.add("exp.store_hits", double(st.hits));
    layers.add("exp.store_misses", double(st.misses));
    layers.add("exp.store_puts", double(st.stores));
    layers.add("exp.store_evictions", double(st.evictions));
}

void
storeFiles(const std::string &dir)
{
    layers.add("exp.store_index_bytes", double(fileBytes(dir + "/index.txt")));
    layers.add("exp.store_data_bytes", double(fileBytes(dir + "/data.txt")));
}

/** Open a store inside an exp.store_open span. */
std::unique_ptr<exp::ResultStore>
openStore(const std::string &dir)
{
    Tracer::Scope s(tracer, "exp.store_open", 0, 0, 0, tracer.phase);
    return std::make_unique<exp::ResultStore>(dir);
}

// ----- untraced passes ---------------------------------------------------

/** Records each point as an op as it completes. */
class OpSink : public exp::Sink
{
  public:
    explicit OpSink(unsigned pass) : pass_(pass) {}

    void
    onPoint(std::size_t, const exp::Point &point,
            const exp::Result &result) override
    {
        double end = now();
        Fingerprint f = fingerprint(result);
        emit(opRecord("op", pass_, key(point), end - result.wallSeconds,
                      end, "", &f));
    }

  private:
    unsigned pass_;
};

/** One in-process submit of @p req as a pass of ops. */
exp::Submission
submitPass(const exp::Request &req, unsigned pass)
{
    OpSink sink(pass);
    exp::Submission sub = exp::submit(req, &sink);
    check(sub.ok, "submit failed: " + sub.error);
    return sub;
}

std::string
passStore(unsigned pass)
{
    return opt.tmp + "/store-" + std::to_string(pass);
}

/** acpsim's argv for one cold_start op. */
std::vector<std::string>
acpsimArgs(const std::string &workload, const std::string &json_out)
{
    return {opt.acpsim,       workload,
            "--policy",       "baseline",
            "--jobs",         "1",
            "--ws",           num(kColdWs),
            "--insts",        num(kColdInsts),
            "--warmup",       num(kColdWarmup),
            "--seed",         num(opt.seed),
            "--rng-seed",     num(rngSeed()),
            "--json",         json_out};
}

/** One cold_start op: an acpsim process. Fills @p digest from its
 *  JSON; returns the error ("" on success). */
std::string
coldOp(const std::string &workload, unsigned pass, std::size_t i,
       Fingerprint &f, std::string &digest, double &point_wall)
{
    std::string json_out = opt.tmp + "/cold-" + std::to_string(pass) +
                           "-" + std::to_string(i) + ".json";
    int rc = spawn(acpsimArgs(workload, json_out), opt.tmp + "/acpsim.log");
    if (rc != 0)
        return "acpsim exited with status " + std::to_string(rc);
    std::ifstream in(json_out);
    std::stringstream text;
    text << in.rdbuf();
    json::Value doc;
    std::string err;
    if (!json::parse(text.str(), doc, &err))
        return "unreadable acpsim JSON: " + err;
    const json::Value *points = doc.find("points");
    if (!points || points->items.size() != 1)
        return "acpsim JSON has no single point";
    const json::Value &p = points->items[0];
    const json::Value *r = p.find("result");
    const json::Value *d = p.find("digest");
    if (!r || !d)
        return "acpsim JSON lacks a result";
    for (const char *field : {"insts", "cycles", "ipc", "reason", "counters"})
        if (!r->find(field))
            return std::string("acpsim JSON lacks result.") + field;
    std::map<std::string, std::uint64_t> counters;
    for (const auto &[name, v] : r->find("counters")->members)
        counters[name] = v.asU64();
    f = fingerprint(r->find("insts")->asU64(), r->find("cycles")->asU64(),
                    r->find("ipc")->asDouble(), r->find("reason")->str,
                    counters);
    digest = d->str;
    const json::Value *tel = doc.find("telemetry");
    const json::Value *wall = tel ? tel->find("pointWallMax") : nullptr;
    point_wall = wall ? wall->asDouble() : 0.0;
    std::remove(json_out.c_str());
    return "";
}

// ----- the workloads -----------------------------------------------------

struct Figure
{
    exp::Request req;
    std::vector<exp::Point> points;
    /** The fill's codec lines, by point index. */
    std::vector<std::string> lines;
    std::string pristine;
};

/** Fill figure_rerun's store; keep a pristine copy to restore. */
Figure
fillFigure(bool step)
{
    Figure fig;
    fig.req = rerunFill();
    const std::string tag = step ? "step" : "submit";
    fig.req.store = opt.tmp + "/rerun-" + tag;
    fig.points = fig.req.points();
    std::vector<exp::Result> results;
    if (step) {
        tracer.phase = "setup";
        auto store = openStore(fig.req.store);
        for (Stepped &s : stepPass(fig.points, store.get(), nullptr))
            results.push_back(std::move(s.result));
        storeStats(*store);
        tracer.phase = "timed";
    } else {
        exp::Submission sub = exp::submit(fig.req);
        check(sub.ok, "figure fill failed: " + sub.error);
        results = std::move(sub.results);
    }
    for (std::size_t i = 0; i < fig.points.size(); ++i) {
        Fingerprint f = fingerprint(results[i]);
        emit(opRecord("fill", 0, key(fig.points[i]), 0, 0, "", &f));
        fig.lines.push_back(resultLine(results[i]));
    }
    fig.pristine = opt.tmp + "/rerun-pristine-" + tag;
    ::mkdir(fig.pristine.c_str(), 0777);
    for (const char *f : {"/index.txt", "/data.txt"})
        copyFile(fig.req.store + f, fig.pristine + f);
    return fig;
}

void
restoreFigure(const Figure &fig)
{
    for (const char *f : {"/index.txt", "/data.txt"})
        copyFile(fig.pristine + f, fig.req.store + f);
}

/** One resubmission: every point must come back from the store,
 *  byte-identical to the fill. */
std::string
replayCheck(const Figure &fig, const std::vector<exp::Result> &results,
            std::uint64_t &insts)
{
    insts = 0;
    if (results.size() != fig.points.size())
        return "replay returned " + std::to_string(results.size()) +
               " results";
    for (std::size_t i = 0; i < results.size(); ++i) {
        insts += results[i].run.insts;
        if (!results[i].fromCache)
            return "replay simulated " + key(fig.points[i]);
        if (resultLine(results[i]) != fig.lines[i])
            return "replay differs from fill: " + key(fig.points[i]);
    }
    return "";
}

std::string
rerunOp(const Figure &fig, unsigned pass, std::size_t r)
{
    double start = now();
    exp::Submission sub = exp::submit(fig.req);
    double end = now();
    std::uint64_t insts = 0;
    std::string err = sub.ok ? replayCheck(fig, sub.results, insts)
                             : "submit failed: " + sub.error;
    Fingerprint f;
    f.insts = insts;
    emit(opRecord("op", pass, "rerun-" + std::to_string(r), start, end, err,
                  &f));
    return err;
}

/** Step-through of one resubmission (open, digest, lookup, decode). */
void
stepRerun(const Figure &fig, std::size_t r)
{
    using Scope = Tracer::Scope;
    auto root = std::make_unique<Scope>(tracer, "rerun", 0, r + 1, 0,
                                        tracer.phase);
    const std::uint64_t rid = root->id();
    std::unique_ptr<exp::ResultStore> store;
    {
        Scope s(tracer, "exp.store_open", rid, r + 1, 0, tracer.phase);
        store = std::make_unique<exp::ResultStore>(fig.req.store);
    }
    std::vector<std::string> digests;
    {
        Scope s(tracer, "exp.digest", rid, r + 1, 0, tracer.phase);
        for (const exp::Point &p : fig.points)
            digests.push_back(exp::pointDigest(p));
    }
    std::vector<exp::Result> results(fig.points.size());
    {
        Scope s(tracer, "exp.store_lookup", rid, r + 1, 0, tracer.phase);
        for (std::size_t i = 0; i < digests.size(); ++i)
            check(store->lookup(digests[i], results[i]),
                  "store miss on replay: " + key(fig.points[i]));
    }
    std::vector<exp::Result> decoded(fig.lines.size());
    {
        Scope s(tracer, "exp.decode", rid, r + 1, 0, tracer.phase);
        for (std::size_t i = 0; i < fig.lines.size(); ++i)
            exp::decodeResultTokens(fig.lines[i], decoded[i]);
    }
    root.reset();
    std::uint64_t insts = 0;
    std::string err = replayCheck(fig, results, insts);
    check(err.empty(), "step-through " + err);
    for (std::size_t i = 0; i < decoded.size(); ++i)
        check(exp::encodeResultTokens(decoded[i]) == fig.lines[i],
              "decode is not the inverse of encode: " + key(fig.points[i]));
    if (r + 1 == kRerunsPerPass) {
        storeStats(*store);
        storeFiles(fig.req.store);
    }
}

/** Compare a traced pass with the untraced one, point by point. */
void
compareStepped(const std::vector<exp::Point> &points,
               const std::vector<exp::Result> &submitted,
               const std::vector<Stepped> &stepped)
{
    double untraced = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        untraced += submitted[i].wallSeconds;
        check(resultLine(submitted[i]) == stepped[i].line &&
                  observedText(submitted[i]) ==
                      observedText(stepped[i].result),
              "step-through differs from submit: " + key(points[i]));
    }
    layers.add("untraced.point_wall_s", untraced);
}

/** @p jobs is the number of threads of the workload's timed pass. */
void
emitHeader(const exp::Point &first, std::size_t ops_per_pass,
           unsigned jobs)
{
    std::string m = obs::manifestJsonLine(obs::manifest());
    emit("{\"t\":\"header\",\"workload\":" + json::quote(opt.workload) +
         ",\"dataSeed\":" + num(opt.seed) + ",\"rngSeed\":" +
         num(rngSeed()) + ",\"nproc\":" +
         num(std::uint64_t(std::thread::hardware_concurrency())) +
         ",\"jobs\":" + num(std::uint64_t(jobs)) + ",\"opsPerPass\":" +
         num(std::uint64_t(ops_per_pass)) + ",\"workingSetBytes\":" +
         num(first.params.workingSetBytes) + ",\"warmupInsts\":" +
         num(first.warmupInsts) + ",\"measureInsts\":" +
         num(first.measureInsts) + ",\"config\":" +
         json::quote(sim::serializeConfig(first.cfg)) +
         ",\"manifest\":" + m + "}");
}

void
emitFirstOp()
{
    emit("{\"t\":\"first_op\",\"mono\":" + num(now()) + "}");
}

/** Repeat @p pass until --seconds have elapsed. */
void
closedLoop(const std::function<void(unsigned)> &pass)
{
    const double start = now();
    unsigned n = 0;
    do {
        double t0 = now(), c0 = cpuSeconds();
        pass(n);
        emit("{\"t\":\"pass\",\"pass\":" + num(std::uint64_t(n)) +
             ",\"start\":" + num(t0) + ",\"end\":" + num(now()) +
             ",\"cpu\":" + num(cpuSeconds() - c0) + "}");
        ++n;
    } while (now() - start < opt.seconds);
}

void
runPaperSweep()
{
    exp::Request req = paperSweep();
    std::vector<exp::Point> points = req.points();
    emitHeader(points[0], points.size(), kJobs);
    emitFirstOp();
    if (opt.setupOnly)
        return;
    if (!opt.trace) {
        closedLoop([&](unsigned pass) {
            req.store = passStore(pass);
            submitPass(req, pass);
        });
        return;
    }
    req.store = passStore(0);
    exp::Submission sub = submitPass(req, 0);
    std::string dir = opt.tmp + "/step-store";
    const double start = now();
    auto store = openStore(dir);
    std::vector<Stepped> stepped = stepPass(points, store.get(), nullptr);
    layers.add("pass.wall_s", now() - start);
    compareStepped(points, sub.results, stepped);
    storeStats(*store);
    storeFiles(dir);
    exp::ResultStore::Stats a = sub.telemetry.cacheStats, b = store->stats();
    check(a.hits == b.hits && a.misses == b.misses && a.stores == b.stores &&
              a.evictions == b.evictions &&
              fileBytes(req.store + "/data.txt") ==
                  fileBytes(dir + "/data.txt"),
          "store counts differ between submit and step-through");
    repeatHostCounts(points[0]);
    obsProbe(points[0]);
}

void
runLongWindow()
{
    exp::Request req = longWindow(true);
    std::vector<exp::Point> points = req.points();
    emitHeader(points[0], points.size(), kJobs);
    std::unique_ptr<obs::Heartbeat> hb =
        obs::Heartbeat::open(opt.tmp + "/heartbeat.jsonl");
    check(hb != nullptr, "cannot open the heartbeat sink");
    req.heartbeat = hb.get();
    emitFirstOp();
    if (opt.setupOnly)
        return;
    if (!opt.trace) {
        closedLoop([&](unsigned pass) { submitPass(req, pass); });
        return;
    }
    exp::Submission sub = submitPass(req, 0);
    const double start = now();
    std::vector<Stepped> stepped = stepPass(points, nullptr, hb.get());
    layers.add("pass.wall_s", now() - start);
    compareStepped(points, sub.results, stepped);
    // The same points with every sink off, right after: obs.overhead_s
    // is the difference of the two passes' timed windows.
    std::vector<Stepped> plain =
        stepPass(longWindow(false).points(), nullptr, nullptr, true);
    for (std::size_t i = 0; i < points.size(); ++i) {
        layers.add("obs.observed_measure_s", stepped[i].measureSeconds);
        layers.add("obs.plain_measure_s", plain[i].measureSeconds);
        check(plain[i].line == stepped[i].line,
              "observability changed the result of " + key(points[i]));
    }
    repeatHostCounts(points[0]);
}

void
runColdStart()
{
    std::vector<exp::Point> points = coldStart().points();
    emitHeader(points[0], points.size(), 1);
    emitFirstOp();
    if (opt.setupOnly)
        return;
    auto pass = [&](unsigned n, std::vector<Fingerprint> *fps) {
        for (std::size_t i = 0; i < points.size(); ++i) {
            Fingerprint f;
            std::string digest;
            double point_wall = 0;
            double start = now();
            std::string err =
                coldOp(points[i].workload, n, i, f, digest, point_wall);
            double end = now();
            if (err.empty() && digest != exp::pointDigest(points[i]))
                err = "acpsim digest differs from the mirrored point";
            emit(opRecord("op", n, key(points[i]), start, end, err,
                          err.empty() ? &f : nullptr));
            if (fps) {
                fps->push_back(err.empty() ? f : Fingerprint{});
                layers.add("untraced.point_wall_s", point_wall);
            }
        }
    };
    if (!opt.trace) {
        closedLoop([&](unsigned n) { pass(n, nullptr); });
        return;
    }
    std::vector<Fingerprint> untraced;
    pass(0, &untraced);
    // Each step-through point runs in its own process, as acpsim's do:
    // a panicking kernel fails its op without ending the run.
    const std::string dir = opt.tmp + "/step-store";
    layers.flush(); // children must not re-emit the parent's counts
    const double start = now();
    double busy = 0;
    for (std::size_t i = 0; i < points.size(); ++i) {
        tracer.nextId = (i + 1) * 1000000;
        const double t0 = now();
        int rc = inChild([&] {
            auto store = openStore(dir);
            auto a0 = mem::txnArenaStats().allocs;
            Stepped s = stepPoint(points[i], i + 1, 0, store.get(), nullptr);
            storeStats(*store);
            layers.add("mem.txn_allocs",
                       double(mem::txnArenaStats().allocs - a0));
            check(untraced[i].fp == fingerprint(s.result).fp,
                  "step-through differs from acpsim: " + key(points[i]));
            tracer.flush();
            layers.flush();
        });
        busy += now() - t0;
        if (rc != 0)
            emit("{\"t\":\"step_failed\",\"key\":" +
                 json::quote(key(points[i])) + ",\"status\":" +
                 num(std::uint64_t(rc)) + "}");
    }
    const double wall = now() - start;
    // The parent adds its own counts only after this child has exited,
    // so that the child does not emit them too.
    tracer.nextId = (points.size() + 1) * 1000000;
    inChild([&] {
        repeatHostCounts(points[0]);
        obsProbe(points[0]);
        tracer.flush();
        layers.flush();
    });
    layers.add("pass.wall_s", wall);
    layers.add("pass.busy_s", busy);
    storeFiles(dir);
}

void
runFigureRerun()
{
    // The header goes first, so that a failing fill still names the
    // run's config and op count.
    emitHeader(rerunFill().points()[0], kRerunsPerPass, 1);
    Figure fig = fillFigure(false);
    emitFirstOp();
    if (opt.setupOnly)
        return;
    if (!opt.trace) {
        closedLoop([&](unsigned pass) {
            restoreFigure(fig);
            for (std::size_t r = 0; r < kRerunsPerPass; ++r)
                rerunOp(fig, pass, r);
        });
        return;
    }
    // Traced: one untraced pass of resubmissions, then the same on a
    // store that a step-through fill wrote, which must hold the same
    // bytes.
    std::vector<std::string> untraced = fig.lines;
    const double t0 = now();
    for (std::size_t r = 0; r < kRerunsPerPass; ++r)
        rerunOp(fig, 0, r);
    layers.add("untraced.point_wall_s", now() - t0);
    fig = fillFigure(true);
    check(untraced == fig.lines, "step-through fill differs from submit");
    const double start = now();
    for (std::size_t r = 0; r < kRerunsPerPass; ++r) {
        // The checks and frees run on the same thread: busy time too.
        const double t0 = now();
        stepRerun(fig, r);
        layers.add("pass.busy_s", now() - t0);
    }
    layers.add("pass.wall_s", now() - start);
    obsProbe(fig.points[0]);
}

} // namespace

int
main(int argc, char **argv)
{
    for (int i = 1; i < argc; ++i) {
        std::string a = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc) {
                std::fprintf(stderr, "missing value for %s\n", a.c_str());
                std::exit(2);
            }
            return argv[++i];
        };
        if (a == "--workload")
            opt.workload = next();
        else if (a == "--seed")
            opt.seed = std::strtoull(next().c_str(), nullptr, 10);
        else if (a == "--seconds")
            opt.seconds = std::strtod(next().c_str(), nullptr);
        else if (a == "--tmp")
            opt.tmp = next();
        else if (a == "--out")
            opt.out = next();
        else if (a == "--acpsim")
            opt.acpsim = next();
        else if (a == "--setup-only")
            opt.setupOnly = true;
        else if (a == "--trace")
            opt.trace = true;
        else {
            std::fprintf(stderr, "unknown option %s\n", a.c_str());
            return 2;
        }
    }
    out_file = std::fopen(opt.out.c_str(), "a");
    if (!out_file || opt.tmp.empty()) {
        std::fprintf(stderr, "need --out and --tmp\n");
        return 2;
    }
    const std::map<std::string, void (*)()> workloads = {
        {"paper_sweep", runPaperSweep},
        {"long_window", runLongWindow},
        {"cold_start", runColdStart},
        {"figure_rerun", runFigureRerun},
    };
    auto it = workloads.find(opt.workload);
    if (it == workloads.end()) {
        std::fprintf(stderr, "unknown workload %s\n", opt.workload.c_str());
        return 2;
    }
    it->second();
    tracer.flush();
    layers.flush();
    rusage self{}, children{};
    getrusage(RUSAGE_SELF, &self);
    getrusage(RUSAGE_CHILDREN, &children);
    emit("{\"t\":\"end\",\"maxrssSelfKb\":" +
         num(std::uint64_t(self.ru_maxrss)) + ",\"maxrssChildrenKb\":" +
         num(std::uint64_t(children.ru_maxrss)) + ",\"cpu\":" +
         num(cpuSeconds()) + "}");
    std::fclose(out_file);
    return 0;
}
