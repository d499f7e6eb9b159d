/**
 * @file
 * Counter-mode memory encryption engine (functional model).
 *
 * Each protected cache line is encrypted by XOR with a one-time pad
 * derived from AES_K(address || per-line counter || block index). The
 * pad depends only on (address, counter), so the hardware can start
 * computing it as soon as the fetch address is issued — the property
 * that creates the decryption/authentication latency gap the paper
 * studies. Counter-mode is *malleable*: flipping ciphertext bit i
 * flips plaintext bit i, which is exactly what the paper's fetch-side-
 * channel exploits rely on (and what our attack examples demonstrate).
 */

#ifndef ACP_CRYPTO_CTR_MODE_HH
#define ACP_CRYPTO_CTR_MODE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "crypto/aes.hh"

namespace acp::crypto
{

/**
 * Counter-mode pad generator / line transcoder.
 * Works on arbitrary line sizes that are multiples of the AES block.
 */
class CtrModeEngine
{
  public:
    /** @param key AES key bytes; @param key_len 16 or 32. */
    CtrModeEngine(const std::uint8_t *key, std::size_t key_len)
        : aes_(key, key_len)
    {}

    /**
     * Generate the pad for a line.
     * @param addr line-aligned physical address (part of the seed)
     * @param counter per-line write counter (part of the seed)
     * @param pad output buffer of @p line_bytes
     * @param line_bytes line size; must be a multiple of 16
     */
    void genPad(Addr addr, std::uint64_t counter, std::uint8_t *pad,
                std::size_t line_bytes) const;

    /** Largest line transcode() accepts (its pad lives on the stack). */
    static constexpr std::size_t kMaxLineBytes = 256;

    /**
     * Encrypt (== decrypt) a line in counter mode: out = in XOR pad.
     * in and out may alias; @p line_bytes is at most kMaxLineBytes.
     */
    void transcode(Addr addr, std::uint64_t counter, const std::uint8_t *in,
                   std::uint8_t *out, std::size_t line_bytes) const;

  private:
    Aes aes_;
};

} // namespace acp::crypto

#endif // ACP_CRYPTO_CTR_MODE_HH
