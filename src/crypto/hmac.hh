/**
 * @file
 * HMAC-SHA256 (RFC 2104 / FIPS-198). The secure processor's reference
 * line-MAC is a 64-bit truncated HMAC-SHA256 (paper Section 5.2.3).
 */

#ifndef ACP_CRYPTO_HMAC_HH
#define ACP_CRYPTO_HMAC_HH

#include <array>
#include <cstddef>
#include <cstdint>

#include "crypto/sha256.hh"

namespace acp::crypto
{

/**
 * Keyed HMAC-SHA256 context. The key is expanded once at construction
 * and both padded key blocks are absorbed then, so a MAC of a short
 * message costs only the compressions of the message and the outer
 * digest (3 for a line MAC instead of 5).
 */
class HmacSha256
{
  public:
    HmacSha256(const std::uint8_t *key, std::size_t key_len);

    /** Full 32-byte MAC of @p data. */
    std::array<std::uint8_t, kSha256DigestBytes>
    mac(const std::uint8_t *data, std::size_t len) const;

    /** MAC truncated to the first 8 bytes, as a big-endian uint64. */
    std::uint64_t mac64(const std::uint8_t *data, std::size_t len) const;

  private:
    /** SHA-256 states that have absorbed K0 ^ ipad and K0 ^ opad. */
    Sha256 inner_;
    Sha256 outer_;
};

} // namespace acp::crypto

#endif // ACP_CRYPTO_HMAC_HH
