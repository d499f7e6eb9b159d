#include "mem/txn.hh"

#include <algorithm>
#include <atomic>
#include <new>
#include <vector>

namespace acp::mem
{

// ----- timeline arena ----------------------------------------------------

namespace
{

// Size classes are powers of two from 64 B to 64 KB; anything larger
// (which a Txn timeline never reaches) falls through to operator new.
constexpr unsigned kMinClassLog2 = 6;
constexpr unsigned kMaxClassLog2 = 16;

unsigned
classLog2(std::size_t bytes)
{
    unsigned log2 = kMinClassLog2;
    while ((std::size_t(1) << log2) < bytes)
        ++log2;
    return log2;
}

// Process-wide counters: blocks may be freed on a different thread
// than they were allocated on (Result objects cross the Runner's
// worker/main boundary), so the live count must be global.
std::atomic<std::uint64_t> arenaAllocs{0};
std::atomic<std::uint64_t> arenaPoolHits{0};
std::atomic<std::uint64_t> arenaLive{0};
std::atomic<std::uint64_t> arenaLiveHighWater{0};

struct ArenaPool
{
    std::vector<void *> free[kMaxClassLog2 + 1];

    ~ArenaPool()
    {
        release();
    }

    void
    release()
    {
        for (auto &list : free) {
            for (void *block : list)
                ::operator delete(block);
            list.clear();
        }
    }
};

ArenaPool &
pool()
{
    thread_local ArenaPool p;
    return p;
}

void *
arenaAllocate(std::size_t bytes)
{
    arenaAllocs.fetch_add(1, std::memory_order_relaxed);
    std::uint64_t live =
        arenaLive.fetch_add(1, std::memory_order_relaxed) + 1;
    // Lock-free max: racing threads may each see a stale high water,
    // but the CAS loop converges on the true maximum.
    std::uint64_t hw = arenaLiveHighWater.load(std::memory_order_relaxed);
    while (live > hw &&
           !arenaLiveHighWater.compare_exchange_weak(
               hw, live, std::memory_order_relaxed)) {
    }
    if (bytes > (std::size_t(1) << kMaxClassLog2))
        return ::operator new(bytes);
    unsigned log2 = classLog2(bytes);
    std::vector<void *> &list = pool().free[log2];
    if (!list.empty()) {
        arenaPoolHits.fetch_add(1, std::memory_order_relaxed);
        void *block = list.back();
        list.pop_back();
        return block;
    }
    return ::operator new(std::size_t(1) << log2);
}

void
arenaDeallocate(void *p, std::size_t bytes) noexcept
{
    arenaLive.fetch_sub(1, std::memory_order_relaxed);
    if (bytes > (std::size_t(1) << kMaxClassLog2)) {
        ::operator delete(p);
        return;
    }
    pool().free[classLog2(bytes)].push_back(p);
}

} // namespace

TxnArenaStats
txnArenaStats()
{
    TxnArenaStats out;
    out.allocs = arenaAllocs.load(std::memory_order_relaxed);
    out.poolHits = arenaPoolHits.load(std::memory_order_relaxed);
    out.live = arenaLive.load(std::memory_order_relaxed);
    out.liveHighWater =
        arenaLiveHighWater.load(std::memory_order_relaxed);
    return out;
}

void
txnArenaDrain()
{
    pool().release();
}

void
TxnPath::copyFrom(const TxnPath &o)
{
    size_ = 0;
    if (o.size_ > capacity_) {
        if (heap_ != nullptr)
            releaseHeap();
        heap_ = static_cast<TxnStep *>(
            arenaAllocate(o.size_ * sizeof(TxnStep)));
        capacity_ = o.size_;
    }
    std::memcpy(static_cast<void *>(data()), o.data(),
                o.size_ * sizeof(TxnStep));
    size_ = o.size_;
}

void
TxnPath::grow()
{
    std::uint32_t capacity = capacity_ * 2;
    auto *block = static_cast<TxnStep *>(
        arenaAllocate(capacity * sizeof(TxnStep)));
    std::memcpy(static_cast<void *>(block), data(),
                size_ * sizeof(TxnStep));
    if (heap_ != nullptr)
        arenaDeallocate(heap_, capacity_ * sizeof(TxnStep));
    heap_ = block;
    capacity_ = capacity;
}

void
TxnPath::releaseHeap() noexcept
{
    arenaDeallocate(heap_, capacity_ * sizeof(TxnStep));
    heap_ = nullptr;
    capacity_ = kInlineSteps;
}

void
Txn::note(PathEvent event, Cycle cycle, Addr at)
{
    path.insertSorted(TxnStep{cycle, at, event});
}

Cycle
Txn::eventCycle(PathEvent event) const
{
    for (const TxnStep &s : path)
        if (s.event == event)
            return s.cycle;
    return kCycleNever;
}

unsigned
Txn::eventCount(PathEvent event) const
{
    unsigned n = 0;
    for (const TxnStep &s : path)
        if (s.event == event)
            ++n;
    return n;
}

void
Txn::merge(const Txn &child)
{
    ready = std::max(ready, child.ready);
    dataReady = std::max(dataReady, child.dataReady);
    verifyDone = std::max(verifyDone, child.verifyDone);
    authSeq = std::max(authSeq, child.authSeq);
    macOk = macOk && child.macOk;
    gateDelayed = gateDelayed || child.gateDelayed;
    // First primary transfer wins (an access folds at most one line
    // fill per line; cross-line accesses keep the first line's wait).
    if (busGrantAt == kCycleNever) {
        busRequestAt = child.busRequestAt;
        busGrantAt = child.busGrantAt;
    }
    for (const TxnStep &s : child.path)
        note(s.event, s.cycle, s.addr);
}

} // namespace acp::mem
