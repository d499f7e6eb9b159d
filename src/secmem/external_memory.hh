/**
 * @file
 * Functional model of the untrusted external RAM. Everything outside
 * the processor package is ciphertext: each 64-byte line is stored
 * counter-mode encrypted together with a per-line write counter and a
 * 64-bit truncated-HMAC MAC over (address, counter, plaintext).
 *
 * Lines are sealed on first touch. provisionLine() only records the
 * plaintext; the first fetchLine(), storeLine(), tamper() or
 * readCiphertext() of that line encrypts and MACs it under the line's
 * counter. Provisioning never bumps the counter, so the ciphertext and
 * MAC do not depend on when the line is first touched. A program
 * image therefore costs AES and HMAC work only for the lines a run
 * actually reads. Lines never written read as all-zero plaintext with
 * counter 0.
 *
 * The adversary's physical access is modeled by tamper(): XORing a
 * mask into stored ciphertext, exactly the bit-flipping capability the
 * paper's exploits assume (Section 3.1). A tampered line is sealed
 * first, so the flip always lands on real ciphertext.
 */

#ifndef ACP_SECMEM_EXTERNAL_MEMORY_HH
#define ACP_SECMEM_EXTERNAL_MEMORY_HH

#include <array>
#include <cstdint>
#include <unordered_map>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "crypto/ctr_mode.hh"
#include "crypto/line_mac.hh"

namespace acp::secmem
{

/** Result of fetching and decrypting one line. */
struct FetchedLine
{
    std::array<std::uint8_t, kExtLineBytes> plain;
    std::uint64_t counter = 0;
    /** MAC verification outcome over the decrypted plaintext. */
    bool macOk = true;
};

/** Ciphertext RAM, sealed line by line on first touch. */
class ExternalMemory
{
  public:
    /** Keys for encryption and MAC are derived from @p master_seed. */
    explicit ExternalMemory(std::uint64_t master_seed);

    /** Fetch, decrypt and MAC-check the line holding @p line_addr. */
    FetchedLine fetchLine(Addr line_addr);

    /**
     * Encrypt and store a plaintext line (writeback path): bumps the
     * counter, re-encrypts, recomputes the MAC.
     */
    void storeLine(Addr line_addr, const std::uint8_t *plain);

    /**
     * Trusted provisioning write (program loading / secure installer):
     * same as storeLine but without counting as runtime traffic or
     * bumping the counter. The line is sealed on its first touch.
     */
    void provisionLine(Addr line_addr, const std::uint8_t *plain);

    /** Current counter value of a line (0 if never written). */
    std::uint64_t counterOf(Addr line_addr) const;

    /** Adversary: XOR @p mask_len bytes of mask into stored ciphertext
     *  starting at byte address @p addr (may span lines). */
    void tamper(Addr addr, const std::uint8_t *mask, std::size_t mask_len);

    /** Adversary: read raw ciphertext bytes (eavesdropping). */
    std::vector<std::uint8_t> readCiphertext(Addr addr, std::size_t len);

    /** Number of distinct lines held, sealed or not (footprint). */
    std::size_t linesTouched() const { return lines_.size(); }

    StatGroup &stats() { return stats_; }

  private:
    struct LineRec
    {
        /** Ciphertext once sealed, provisioned plaintext before. */
        std::array<std::uint8_t, kExtLineBytes> bytes{};
        std::uint64_t counter = 0;
        std::uint64_t mac = 0;
        bool sealed = false;
    };

    /** The sealed record of a line, creating and sealing it if needed. */
    LineRec &materialize(Addr line_addr);
    static Addr align(Addr a) { return a & ~Addr(kExtLineBytes - 1); }

    crypto::CtrModeEngine ctr_;
    crypto::LineMac mac_;
    std::unordered_map<Addr, LineRec> lines_;

    StatGroup stats_;
    StatCounter fetches_;
    StatCounter stores_;
    StatCounter macFailures_;
    StatCounter tamperEvents_;
};

} // namespace acp::secmem

#endif // ACP_SECMEM_EXTERNAL_MEMORY_HH
