/**
 * @file
 * Counter-mode engine tests: round trip, pad-only dependence on
 * (address, counter), and the malleability property that the paper's
 * side-channel exploits depend on.
 */

#include <gtest/gtest.h>

#include <cstring>
#include <vector>

#include "common/rng.hh"
#include "crypto/ctr_mode.hh"
#include "crypto/line_mac.hh"

using namespace acp;
using namespace acp::crypto;

namespace
{

class CtrModeTest : public ::testing::Test
{
  protected:
    CtrModeTest()
    {
        for (int i = 0; i < 16; ++i)
            key_[i] = std::uint8_t(0xc0 + i);
        engine_ = std::make_unique<CtrModeEngine>(key_, sizeof(key_));
    }

    std::uint8_t key_[16];
    std::unique_ptr<CtrModeEngine> engine_;
};

} // namespace

TEST_F(CtrModeTest, RoundTrip)
{
    Rng rng(11);
    std::uint8_t pt[64], ct[64], back[64];
    for (auto &byte : pt)
        byte = std::uint8_t(rng.next());

    engine_->transcode(0x10000, 3, pt, ct, sizeof(pt));
    EXPECT_NE(0, std::memcmp(pt, ct, sizeof(pt)));
    engine_->transcode(0x10000, 3, ct, back, sizeof(ct));
    EXPECT_EQ(0, std::memcmp(pt, back, sizeof(pt)));
}

TEST_F(CtrModeTest, OversizedLineIsFatal)
{
    std::vector<std::uint8_t> line(CtrModeEngine::kMaxLineBytes + 16);
    EXPECT_DEATH(engine_->transcode(0x10000, 0, line.data(), line.data(),
                                    line.size()),
                 "line size 272 over 256");
}

TEST_F(CtrModeTest, PadDependsOnAddress)
{
    std::uint8_t pad_a[64], pad_b[64];
    engine_->genPad(0x1000, 1, pad_a, sizeof(pad_a));
    engine_->genPad(0x1040, 1, pad_b, sizeof(pad_b));
    EXPECT_NE(0, std::memcmp(pad_a, pad_b, sizeof(pad_a)));
}

TEST_F(CtrModeTest, PadDependsOnCounter)
{
    std::uint8_t pad_a[64], pad_b[64];
    engine_->genPad(0x1000, 1, pad_a, sizeof(pad_a));
    engine_->genPad(0x1000, 2, pad_b, sizeof(pad_b));
    EXPECT_NE(0, std::memcmp(pad_a, pad_b, sizeof(pad_a)));
}

TEST_F(CtrModeTest, PadBlocksDiffer)
{
    // Each 16-byte block of a line must get a distinct pad block.
    std::uint8_t pad[64];
    engine_->genPad(0x2000, 9, pad, sizeof(pad));
    for (int i = 0; i < 4; ++i)
        for (int j = i + 1; j < 4; ++j)
            EXPECT_NE(0, std::memcmp(pad + 16 * i, pad + 16 * j, 16));
}

/**
 * The malleability property (paper Section 3.1): flipping ciphertext
 * bit i flips exactly plaintext bit i after decryption. This is the
 * foundation of the pointer-conversion and disclosing-kernel exploits.
 */
TEST_F(CtrModeTest, MalleabilityBitFlip)
{
    Rng rng(23);
    std::uint8_t pt[64], ct[64], back[64];
    for (auto &byte : pt)
        byte = std::uint8_t(rng.next());
    engine_->transcode(0x8000, 7, pt, ct, sizeof(pt));

    for (int trial = 0; trial < 100; ++trial) {
        unsigned byte_idx = unsigned(rng.below(64));
        unsigned bit_idx = unsigned(rng.below(8));
        std::uint8_t tampered[64];
        std::memcpy(tampered, ct, sizeof(ct));
        tampered[byte_idx] ^= std::uint8_t(1u << bit_idx);

        engine_->transcode(0x8000, 7, tampered, back, sizeof(tampered));
        for (unsigned i = 0; i < 64; ++i) {
            std::uint8_t expect =
                (i == byte_idx) ? std::uint8_t(pt[i] ^ (1u << bit_idx))
                                : pt[i];
            EXPECT_EQ(back[i], expect);
        }
    }
}

/**
 * The attack recipe: XOR of the ciphertext with (known_plain XOR
 * desired_plain) converts a known plaintext into attacker-chosen
 * plaintext without the key — e.g. NULL pointer -> pointer to the
 * secret (pointer-conversion exploit, Figure 1).
 */
TEST_F(CtrModeTest, KnownPlaintextSubstitution)
{
    std::uint64_t null_ptr = 0;
    std::uint64_t target_ptr = 0x00500008; // l - node_size + 4 analogue

    std::uint8_t pt[16] = {0}, ct[16];
    std::memcpy(pt, &null_ptr, 8);
    engine_->transcode(0x9000, 4, pt, ct, sizeof(pt));

    // Adversary: flip ct bits by XOR with (null ^ target).
    std::uint64_t diff = null_ptr ^ target_ptr;
    for (int i = 0; i < 8; ++i)
        ct[i] ^= std::uint8_t(diff >> (8 * i));

    std::uint8_t back[16];
    engine_->transcode(0x9000, 4, ct, back, sizeof(ct));
    std::uint64_t recovered;
    std::memcpy(&recovered, back, 8);
    EXPECT_EQ(recovered, target_ptr);
}

TEST(LineMac, DetectsTamper)
{
    std::uint8_t key[16] = {1, 2, 3, 4, 5, 6, 7, 8,
                            9, 10, 11, 12, 13, 14, 15, 16};
    LineMac mac(key, sizeof(key));
    std::uint8_t line[64] = {0};
    line[0] = 0xaa;

    std::uint64_t m = mac.compute(0x4000, 12, line, sizeof(line));
    line[5] ^= 0x01;
    EXPECT_NE(mac.compute(0x4000, 12, line, sizeof(line)), m);
    line[5] ^= 0x01;
    EXPECT_EQ(mac.compute(0x4000, 12, line, sizeof(line)), m);

    // Address binding: same contents at another address has another MAC
    // (prevents relocation/splicing attacks).
    EXPECT_NE(mac.compute(0x4040, 12, line, sizeof(line)), m);
    // Counter binding: stale version replay detected.
    EXPECT_NE(mac.compute(0x4000, 11, line, sizeof(line)), m);
}

/** Property: pads are unique across (address, counter) pairs — the
 *  fundamental requirement for CTR security (pad reuse breaks it). */
TEST_F(CtrModeTest, PadUniquenessProperty)
{
    std::vector<std::array<std::uint8_t, 16>> pads;
    for (Addr addr = 0; addr < 16 * 64; addr += 64) {
        for (std::uint64_t ctr = 0; ctr < 8; ++ctr) {
            std::uint8_t pad[64];
            engine_->genPad(addr, ctr, pad, sizeof(pad));
            std::array<std::uint8_t, 16> first_block;
            std::memcpy(first_block.data(), pad, 16);
            pads.push_back(first_block);
        }
    }
    for (std::size_t i = 0; i < pads.size(); ++i)
        for (std::size_t j = i + 1; j < pads.size(); ++j)
            EXPECT_NE(pads[i], pads[j]) << i << "," << j;
}

/** Pad generation is a pure function of (addr, counter). */
TEST_F(CtrModeTest, PadDeterminism)
{
    std::uint8_t a[64], b[64];
    engine_->genPad(0x4000, 17, a, sizeof(a));
    engine_->genPad(0x4000, 17, b, sizeof(b));
    EXPECT_EQ(0, std::memcmp(a, b, sizeof(a)));
}
