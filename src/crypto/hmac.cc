#include "crypto/hmac.hh"

#include <cstring>

namespace acp::crypto
{

HmacSha256::HmacSha256(const std::uint8_t *key, std::size_t key_len)
{
    std::uint8_t k0[64];
    std::memset(k0, 0, sizeof(k0));
    if (key_len > 64) {
        auto digest = Sha256::digest(key, key_len);
        std::memcpy(k0, digest.data(), digest.size());
    } else {
        std::memcpy(k0, key, key_len);
    }
    std::uint8_t ipad_key[64];
    std::uint8_t opad_key[64];
    for (int i = 0; i < 64; ++i) {
        ipad_key[i] = std::uint8_t(k0[i] ^ 0x36);
        opad_key[i] = std::uint8_t(k0[i] ^ 0x5c);
    }
    inner_.update(ipad_key, sizeof(ipad_key));
    outer_.update(opad_key, sizeof(opad_key));
}

std::array<std::uint8_t, kSha256DigestBytes>
HmacSha256::mac(const std::uint8_t *data, std::size_t len) const
{
    Sha256 inner = inner_;
    inner.update(data, len);
    std::uint8_t inner_digest[kSha256DigestBytes];
    inner.final(inner_digest);

    Sha256 outer = outer_;
    outer.update(inner_digest, sizeof(inner_digest));
    std::array<std::uint8_t, kSha256DigestBytes> out;
    outer.final(out.data());
    return out;
}

std::uint64_t
HmacSha256::mac64(const std::uint8_t *data, std::size_t len) const
{
    auto full = mac(data, len);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v = (v << 8) | full[i];
    return v;
}

} // namespace acp::crypto
