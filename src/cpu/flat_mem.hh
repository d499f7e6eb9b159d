/**
 * @file
 * Sparse flat plaintext memory used by the standalone functional
 * executor (fast-forward reference and commit-time co-simulation
 * shadow). Independent of the cache hierarchy so the shadow never
 * perturbs timing state.
 */

#ifndef ACP_CPU_FLAT_MEM_HH
#define ACP_CPU_FLAT_MEM_HH

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "isa/program.hh"

namespace acp::cpu
{

/** Page-granular sparse memory. */
class FlatMem
{
  public:
    explicit FlatMem(std::uint64_t size_bytes) : sizeMask_(size_bytes - 1) {}

    std::uint64_t
    read(Addr addr, unsigned bytes)
    {
        std::uint64_t value = 0;
        for (unsigned i = 0; i < bytes; ++i)
            value |= std::uint64_t(byteAt((addr + i) & sizeMask_))
                     << (8 * i);
        return value;
    }

    void
    write(Addr addr, unsigned bytes, std::uint64_t value)
    {
        for (unsigned i = 0; i < bytes; ++i)
            byteAt((addr + i) & sizeMask_) = std::uint8_t(value >> (8 * i));
    }

    std::uint32_t
    fetch(Addr pc)
    {
        return std::uint32_t(read(pc, 4));
    }

    /** Copy a program's code and data segments in. */
    void
    loadProgram(const isa::Program &prog)
    {
        for (std::size_t i = 0; i < prog.code.size(); ++i)
            write(prog.codeBase + 4 * i, 4, prog.code[i]);
        for (const isa::DataSegment &seg : prog.data)
            copyIn(seg.base, seg.bytes.data(), seg.bytes.size());
    }

  private:
    static constexpr unsigned kPageShift = 12;
    static constexpr std::uint64_t kPageBytes = 1ULL << kPageShift;

    /** The zero-filled page holding @p addr, created on first use. */
    std::vector<std::uint8_t> &
    pageAt(Addr addr)
    {
        auto [it, fresh] = pages_.try_emplace(addr >> kPageShift);
        if (fresh)
            it->second.resize(kPageBytes, 0);
        return it->second;
    }

    std::uint8_t &
    byteAt(Addr addr)
    {
        return pageAt(addr)[addr & (kPageBytes - 1)];
    }

    /**
     * Same bytes as write(base + i, 1, bytes[i]) for every i, one
     * memcpy per page run: a run ends at a page boundary or where the
     * address wraps at the memory size.
     */
    void
    copyIn(Addr base, const std::uint8_t *bytes, std::size_t len)
    {
        std::size_t done = 0;
        while (done < len) {
            Addr addr = (base + done) & sizeMask_;
            std::uint64_t off = addr & (kPageBytes - 1);
            std::uint64_t run = std::min<std::uint64_t>(len - done,
                                                        kPageBytes - off);
            if (sizeMask_ - addr < run)
                run = sizeMask_ - addr + 1;
            std::memcpy(pageAt(addr).data() + off, bytes + done, run);
            done += run;
        }
    }

    std::uint64_t sizeMask_;
    std::unordered_map<Addr, std::vector<std::uint8_t>> pages_;
};

} // namespace acp::cpu

#endif // ACP_CPU_FLAT_MEM_HH
