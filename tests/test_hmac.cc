/**
 * @file
 * HMAC-SHA256 tests against RFC 4231 vectors plus truncation and
 * key-sensitivity properties.
 */

#include <gtest/gtest.h>

#include <array>
#include <cstring>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "crypto/hmac.hh"

using namespace acp;
using namespace acp::crypto;

namespace
{

std::string
hex(const std::uint8_t *p, std::size_t n)
{
    std::string out;
    char b[3];
    for (std::size_t i = 0; i < n; ++i) {
        std::snprintf(b, sizeof(b), "%02x", p[i]);
        out += b;
    }
    return out;
}

} // namespace

// RFC 4231 Test Case 1
TEST(Hmac, Rfc4231Case1)
{
    std::vector<std::uint8_t> key(20, 0x0b);
    HmacSha256 hmac(key.data(), key.size());
    const char *msg = "Hi There";
    auto mac = hmac.mac(reinterpret_cast<const std::uint8_t *>(msg),
                        std::strlen(msg));
    EXPECT_EQ(hex(mac.data(), mac.size()),
        "b0344c61d8db38535ca8afceaf0bf12b881dc200c9833da726e9376c2e32cff7");
}

// RFC 4231 Test Case 2 ("Jefe")
TEST(Hmac, Rfc4231Case2)
{
    const char *key = "Jefe";
    HmacSha256 hmac(reinterpret_cast<const std::uint8_t *>(key),
                    std::strlen(key));
    const char *msg = "what do ya want for nothing?";
    auto mac = hmac.mac(reinterpret_cast<const std::uint8_t *>(msg),
                        std::strlen(msg));
    EXPECT_EQ(hex(mac.data(), mac.size()),
        "5bdcc146bf60754e6a042426089575c75a003f089d2739839dec58b964ec3843");
}

// RFC 4231 Test Case 3 (0xaa key, 0xdd data)
TEST(Hmac, Rfc4231Case3)
{
    std::vector<std::uint8_t> key(20, 0xaa);
    std::vector<std::uint8_t> msg(50, 0xdd);
    HmacSha256 hmac(key.data(), key.size());
    auto mac = hmac.mac(msg.data(), msg.size());
    EXPECT_EQ(hex(mac.data(), mac.size()),
        "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

// RFC 4231 Test Case 6 (key longer than block size)
TEST(Hmac, Rfc4231Case6LongKey)
{
    std::vector<std::uint8_t> key(131, 0xaa);
    HmacSha256 hmac(key.data(), key.size());
    const char *msg = "Test Using Larger Than Block-Size Key - Hash Key First";
    auto mac = hmac.mac(reinterpret_cast<const std::uint8_t *>(msg),
                        std::strlen(msg));
    EXPECT_EQ(hex(mac.data(), mac.size()),
        "60e431591ee0b67f0d8a26aacbf5b77f8e0bc6213728c5140546040f0ee37f54");
}

TEST(Hmac, Mac64IsTruncationOfFullMac)
{
    std::vector<std::uint8_t> key(16, 0x42);
    HmacSha256 hmac(key.data(), key.size());
    const char *msg = "cache line contents";
    auto full = hmac.mac(reinterpret_cast<const std::uint8_t *>(msg),
                         std::strlen(msg));
    std::uint64_t truncated =
        hmac.mac64(reinterpret_cast<const std::uint8_t *>(msg),
                   std::strlen(msg));
    std::uint64_t expect = 0;
    for (int i = 0; i < 8; ++i)
        expect = (expect << 8) | full[i];
    EXPECT_EQ(truncated, expect);
}

/** Property: MAC changes when any single message bit flips. */
TEST(Hmac, SingleBitSensitivity)
{
    Rng rng(99);
    std::uint8_t key[16];
    for (auto &byte : key)
        byte = std::uint8_t(rng.next());
    HmacSha256 hmac(key, sizeof(key));

    std::uint8_t msg[64];
    for (auto &byte : msg)
        byte = std::uint8_t(rng.next());
    std::uint64_t base = hmac.mac64(msg, sizeof(msg));

    for (int trial = 0; trial < 128; ++trial) {
        std::uint8_t tampered[64];
        std::memcpy(tampered, msg, sizeof(msg));
        tampered[rng.below(64)] ^= std::uint8_t(1 << rng.below(8));
        EXPECT_NE(hmac.mac64(tampered, sizeof(tampered)), base);
    }
}

/** Property: different keys produce different MACs for the same data. */
TEST(Hmac, KeySensitivity)
{
    Rng rng(5);
    std::uint8_t msg[64];
    for (auto &byte : msg)
        byte = std::uint8_t(rng.next());

    std::uint8_t k1[16], k2[16];
    for (int trial = 0; trial < 50; ++trial) {
        for (int i = 0; i < 16; ++i) {
            k1[i] = std::uint8_t(rng.next());
            k2[i] = std::uint8_t(rng.next());
        }
        if (std::memcmp(k1, k2, 16) == 0)
            continue;
        HmacSha256 h1(k1, sizeof(k1)), h2(k2, sizeof(k2));
        EXPECT_NE(h1.mac64(msg, sizeof(msg)), h2.mac64(msg, sizeof(msg)));
    }
}

namespace
{

/** Textbook two-pass HMAC (RFC 2104) over a fresh Sha256 per pass. */
std::array<std::uint8_t, kSha256DigestBytes>
referenceHmac(const std::vector<std::uint8_t> &key,
              const std::vector<std::uint8_t> &msg)
{
    std::uint8_t k0[64] = {0};
    if (key.size() > 64) {
        auto digest = Sha256::digest(key.data(), key.size());
        std::memcpy(k0, digest.data(), digest.size());
    } else if (!key.empty()) {
        std::memcpy(k0, key.data(), key.size());
    }
    std::vector<std::uint8_t> inner(64);
    std::vector<std::uint8_t> outer(64);
    for (int i = 0; i < 64; ++i) {
        inner[i] = std::uint8_t(k0[i] ^ 0x36);
        outer[i] = std::uint8_t(k0[i] ^ 0x5c);
    }
    inner.insert(inner.end(), msg.begin(), msg.end());
    auto inner_digest = Sha256::digest(inner.data(), inner.size());
    outer.insert(outer.end(), inner_digest.begin(), inner_digest.end());
    return Sha256::digest(outer.data(), outer.size());
}

} // namespace

/** The absorbed-key contexts give the two-pass construction's MAC. */
TEST(Hmac, MatchesTwoPassReference)
{
    Rng rng(2104);
    for (std::size_t key_len : {1u, 16u, 32u, 63u, 64u, 65u, 100u, 131u}) {
        std::vector<std::uint8_t> key(key_len);
        for (auto &byte : key)
            byte = std::uint8_t(rng.next());
        HmacSha256 hmac(key.data(), key.size());
        for (std::size_t len = 0; len <= 200; ++len) {
            std::vector<std::uint8_t> msg(len);
            for (auto &byte : msg)
                byte = std::uint8_t(rng.next());
            auto got = hmac.mac(msg.data(), msg.size());
            auto want = referenceHmac(key, msg);
            ASSERT_EQ(hex(got.data(), got.size()),
                      hex(want.data(), want.size()))
                << "key_len " << key_len << " len " << len;
        }
    }
}

/** The precomputed state is not consumed: repeated MACs agree. */
TEST(Hmac, RepeatedMacsAgree)
{
    std::vector<std::uint8_t> key(16, 0x5a);
    HmacSha256 hmac(key.data(), key.size());
    std::uint8_t msg[80] = {1, 2, 3};
    std::uint64_t first = hmac.mac64(msg, sizeof(msg));
    hmac.mac64(msg, 7);
    EXPECT_EQ(hmac.mac64(msg, sizeof(msg)), first);
}
