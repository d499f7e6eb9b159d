#include "crypto/ctr_mode.hh"

#include <cstring>

#include "common/logging.hh"

namespace acp::crypto
{

void
CtrModeEngine::genPad(Addr addr, std::uint64_t counter, std::uint8_t *pad,
                      std::size_t line_bytes) const
{
    if (line_bytes % kAesBlockBytes != 0)
        acp_panic("counter-mode line size %zu not a multiple of 16",
                  line_bytes);

    std::uint8_t seed[16];
    for (std::size_t blk = 0; blk * kAesBlockBytes < line_bytes; ++blk) {
        // Seed layout: [addr:8][counter:7][block index:1] — unique per
        // (line, version, block) triple as required for CTR security.
        for (int i = 0; i < 8; ++i)
            seed[i] = std::uint8_t(addr >> (8 * i));
        for (int i = 0; i < 7; ++i)
            seed[8 + i] = std::uint8_t(counter >> (8 * i));
        seed[15] = std::uint8_t(blk);
        aes_.encryptBlock(seed, pad + blk * kAesBlockBytes);
    }
}

void
CtrModeEngine::transcode(Addr addr, std::uint64_t counter,
                         const std::uint8_t *in, std::uint8_t *out,
                         std::size_t line_bytes) const
{
    std::uint8_t pad[kMaxLineBytes];
    if (line_bytes > kMaxLineBytes)
        acp_panic("counter-mode line size %zu over %zu", line_bytes,
                  kMaxLineBytes);
    genPad(addr, counter, pad, line_bytes);
    for (std::size_t i = 0; i < line_bytes; ++i)
        out[i] = std::uint8_t(in[i] ^ pad[i]);
}

} // namespace acp::crypto
