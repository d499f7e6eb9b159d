#include "obs/interval.hh"

#include <cstdio>

namespace acp::obs
{

void
IntervalSampler::sample(Cycle cycle, std::uint64_t committed,
                        const StallArray &stalls, std::uint64_t txns)
{
    IntervalSample row;
    row.endCycle = cycle;
    row.cycles = cycle - lastCycle_;
    row.insts = committed - lastCommitted_;
    row.ipc = row.cycles ? double(row.insts) / double(row.cycles) : 0.0;
    for (unsigned i = 0; i < kNumStallCauses; ++i)
        row.stalls[i] = stalls[i] - lastStalls_[i];
    lastCycle_ = cycle;
    lastCommitted_ = committed;
    lastStalls_ = stalls;
    onSample(row, committed, txns);
}

void
printIntervalTable(const std::vector<IntervalSample> &samples,
                   std::FILE *out)
{
    if (samples.empty())
        return;

    // Only show stall columns that are non-zero somewhere: the table
    // stays readable and the policy's signature causes stand out.
    bool used[kNumStallCauses] = {};
    for (const IntervalSample &s : samples)
        for (unsigned i = 0; i < kNumStallCauses; ++i)
            if (s.stalls[i])
                used[i] = true;

    std::fprintf(out, "%12s %8s %8s %7s", "end_cycle", "cycles",
                 "insts", "ipc");
    for (unsigned i = 0; i < kNumStallCauses; ++i)
        if (used[i])
            std::fprintf(out, " %11s", stallCauseName(StallCause(i)));
    std::fputc('\n', out);

    for (const IntervalSample &s : samples) {
        std::fprintf(out, "%12llu %8llu %8llu %7.4f",
                     (unsigned long long)s.endCycle,
                     (unsigned long long)s.cycles,
                     (unsigned long long)s.insts, s.ipc);
        for (unsigned i = 0; i < kNumStallCauses; ++i)
            if (used[i])
                std::fprintf(out, " %11llu",
                             (unsigned long long)s.stalls[i]);
        std::fputc('\n', out);
    }
}

} // namespace acp::obs
