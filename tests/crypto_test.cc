#include <gtest/gtest.h>

#include <cstring>
#include <string_view>
#include <vector>

#include "common/check.h"
#include "common/rng.h"
#include "crypto/aes128.h"
#include "crypto/aes_backend.h"
#include "crypto/line_cipher.h"
#include "crypto/mac.h"
#include "crypto/multilinear_mac.h"
#include "obs/counters.h"

namespace meecc::crypto {
namespace {

Block hex_block(const char (&hex)[33]) {
  Block b{};
  for (int i = 0; i < 16; ++i) {
    auto nibble = [&](char c) -> std::uint8_t {
      if (c >= '0' && c <= '9') return static_cast<std::uint8_t>(c - '0');
      return static_cast<std::uint8_t>(c - 'a' + 10);
    };
    b[i] = static_cast<std::uint8_t>((nibble(hex[2 * i]) << 4) |
                                     nibble(hex[2 * i + 1]));
  }
  return b;
}

// FIPS-197 Appendix B / C.1 vectors.
TEST(Aes128, Fips197AppendixB) {
  const Aes128 aes(hex_block("2b7e151628aed2a6abf7158809cf4f3c"));
  const Block pt = hex_block("3243f6a8885a308d313198a2e0370734");
  const Block expect = hex_block("3925841d02dc09fbdc118597196a0b32");
  EXPECT_EQ(aes.encrypt(pt), expect);
}

TEST(Aes128, Fips197AppendixC1) {
  const Aes128 aes(hex_block("000102030405060708090a0b0c0d0e0f"));
  const Block pt = hex_block("00112233445566778899aabbccddeeff");
  const Block expect = hex_block("69c4e0d86a7b0430d8cdb78070b4c55a");
  EXPECT_EQ(aes.encrypt(pt), expect);
}

TEST(Aes128, DecryptInvertsEncrypt) {
  const Aes128 aes(hex_block("000102030405060708090a0b0c0d0e0f"));
  Rng rng(1);
  for (int trial = 0; trial < 50; ++trial) {
    Block pt{};
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next_below(256));
    EXPECT_EQ(aes.decrypt(aes.encrypt(pt)), pt);
  }
}

TEST(Aes128, DifferentKeysDifferentCiphertext) {
  const Block pt{};
  const Aes128 a(hex_block("00000000000000000000000000000000"));
  const Aes128 b(hex_block("00000000000000000000000000000001"));
  EXPECT_NE(a.encrypt(pt), b.encrypt(pt));
}

Key128 test_key() { return hex_block("2b7e151628aed2a6abf7158809cf4f3c"); }

LineData random_line(Rng& rng) {
  LineData line{};
  for (auto& b : line) b = static_cast<std::uint8_t>(rng.next_below(256));
  return line;
}

TEST(LineCipher, RoundTrip) {
  const LineCipher cipher(test_key());
  Rng rng(2);
  for (int trial = 0; trial < 20; ++trial) {
    const LineData pt = random_line(rng);
    const std::uint64_t addr = rng.next_u64();
    const std::uint64_t version = rng.next_below(1ull << 56);
    const LineData ct = cipher.encrypt(pt, addr, version);
    EXPECT_NE(ct, pt);
    EXPECT_EQ(cipher.decrypt(ct, addr, version), pt);
  }
}

TEST(LineCipher, FreshnessVersionChangesKeystream) {
  const LineCipher cipher(test_key());
  const LineData pt{};
  const auto c1 = cipher.encrypt(pt, 0x1000, 1);
  const auto c2 = cipher.encrypt(pt, 0x1000, 2);
  EXPECT_NE(c1, c2);
}

TEST(LineCipher, SpatialBindingAddressChangesKeystream) {
  const LineCipher cipher(test_key());
  const LineData pt{};
  const auto c1 = cipher.encrypt(pt, 0x1000, 1);
  const auto c2 = cipher.encrypt(pt, 0x1040, 1);
  EXPECT_NE(c1, c2);
  // Moving ciphertext to another address yields garbage, not the plaintext.
  EXPECT_NE(cipher.decrypt(c1, 0x1040, 1), pt);
}

TEST(LineCipher, WrongVersionDecryptsToGarbage) {
  const LineCipher cipher(test_key());
  Rng rng(3);
  const LineData pt = random_line(rng);
  const auto ct = cipher.encrypt(pt, 0x2000, 7);
  EXPECT_NE(cipher.decrypt(ct, 0x2000, 8), pt);
}

TEST(Mac, TagIs56Bits) {
  const MacFunction mac(test_key());
  Rng rng(4);
  for (int i = 0; i < 20; ++i) {
    const LineData data = random_line(rng);
    const auto t = mac.tag(rng.next_u64(), rng.next_below(1ull << 56), data);
    EXPECT_EQ(t & ~kMacMask, 0u);
  }
}

TEST(Mac, VerifyAcceptsGenuineTag) {
  const MacFunction mac(test_key());
  Rng rng(5);
  const LineData data = random_line(rng);
  const auto t = mac.tag(0xabc, 42, data);
  EXPECT_TRUE(mac.verify(0xabc, 42, data, t));
}

TEST(Mac, AnySingleBitFlipInDataBreaksTag) {
  const MacFunction mac(test_key());
  Rng rng(6);
  LineData data = random_line(rng);
  const auto t = mac.tag(0xabc, 42, data);
  for (int trial = 0; trial < 32; ++trial) {
    const auto byte = rng.next_below(data.size());
    const auto bit = rng.next_below(8);
    data[byte] ^= static_cast<std::uint8_t>(1u << bit);
    EXPECT_FALSE(mac.verify(0xabc, 42, data, t));
    data[byte] ^= static_cast<std::uint8_t>(1u << bit);  // restore
  }
}

TEST(Mac, ContextBindsAddressAndVersion) {
  const MacFunction mac(test_key());
  Rng rng(7);
  const LineData data = random_line(rng);
  const auto t = mac.tag(0xabc, 42, data);
  EXPECT_FALSE(mac.verify(0xabd, 42, data, t));  // moved
  EXPECT_FALSE(mac.verify(0xabc, 41, data, t));  // replayed old version
}

TEST(Mac, TagsDifferAcrossKeys) {
  const MacFunction a(test_key());
  const MacFunction b(hex_block("000102030405060708090a0b0c0d0e0f"));
  const LineData data{};
  EXPECT_NE(a.tag(1, 2, data), b.tag(1, 2, data));
}

TEST(Mac, RejectsNonBlockMultipleInput) {
  const MacFunction mac(test_key());
  std::array<std::uint8_t, 15> short_data{};
  EXPECT_THROW((void)mac.tag(1, 2, short_data), meecc::CheckFailure);
}

// ------------------------------------------------------- AES backend --
// make_aes_backend() is AES-NI on CPUs that have it and the byte-wise
// Aes128 elsewhere (and in -DMEECC_NO_SIMD=ON builds), so these run
// whichever path this host and build take; the nosimd CI leg covers the
// portable one.

TEST(AesBackend, FactoryPicksAesniOrReference) {
  const std::string_view name = make_aes_backend(test_key())->name();
  EXPECT_TRUE(name == "aesni" || name == "reference") << name;
}

// FIPS-197 Appendix B / C.1 known-answer vectors.
TEST(AesBackend, Fips197KnownAnswers) {
  EXPECT_EQ(make_aes_backend(hex_block("2b7e151628aed2a6abf7158809cf4f3c"))
                ->encrypt(hex_block("3243f6a8885a308d313198a2e0370734")),
            hex_block("3925841d02dc09fbdc118597196a0b32"));
  EXPECT_EQ(make_aes_backend(hex_block("000102030405060708090a0b0c0d0e0f"))
                ->encrypt(hex_block("00112233445566778899aabbccddeeff")),
            hex_block("69c4e0d86a7b0430d8cdb78070b4c55a"));
}

TEST(AesBackend, MatchesReferenceOnRandomBlocksAndKeys) {
  Rng rng(12);
  for (int trial = 0; trial < 20; ++trial) {
    Key128 key{};
    for (auto& b : key) b = static_cast<std::uint8_t>(rng.next_below(256));
    const Aes128 reference(key);
    const auto aes = make_aes_backend(key);
    Block pt{};
    for (auto& b : pt) b = static_cast<std::uint8_t>(rng.next_below(256));
    EXPECT_EQ(aes->encrypt(pt), reference.encrypt(pt));
  }
}

// NIST SP 800-38A F.1.1 (ECB-AES128.Encrypt): four distinct plaintext
// blocks under one key — a real multi-block KAT, so a lane swap or
// round-key mixup in the pipelined path cannot cancel out. Run the four as
// one batch and doubled to eight, the width the AES-NI path unrolls to.
TEST(AesBackend, EncryptBlocksMultiBlockKnownAnswers) {
  const auto aes =
      make_aes_backend(hex_block("2b7e151628aed2a6abf7158809cf4f3c"));
  const Block pts[4] = {hex_block("6bc1bee22e409f96e93d7e117393172a"),
                        hex_block("ae2d8a571e03ac9c9eb76fac45af8e51"),
                        hex_block("30c81c46a35ce411e5fbc1191a0a52ef"),
                        hex_block("f69f2445df4f9b17ad2b417be66c3710")};
  const Block cts[4] = {hex_block("3ad77bb40d7a3660a89ecaf32466ef97"),
                        hex_block("f5d3d58503b9699de785895a96fdbaaf"),
                        hex_block("43b1cd7f598ece23881b00e3ed030688"),
                        hex_block("7b0c785e27e8ad3f8223207104725dd4")};
  Block out4[4];
  aes->encrypt_blocks(pts, out4, 4);
  for (int i = 0; i < 4; ++i) EXPECT_EQ(out4[i], cts[i]) << "lane " << i;
  Block in8[8], out8[8];
  for (int i = 0; i < 8; ++i) in8[i] = pts[i % 4];
  aes->encrypt_blocks(in8, out8, 8);
  for (int i = 0; i < 8; ++i) EXPECT_EQ(out8[i], cts[i % 4]) << "lane " << i;
}

// encrypt_blocks must be bit-identical to a serial encrypt() loop at every
// batch size (partial tails, exact multiples of the 8-wide unroll, and
// several unrolled chunks), including when the caller aliases out onto in
// element-wise.
TEST(AesBackend, EncryptBlocksMatchesSerialLoopAnySize) {
  const auto aes = make_aes_backend(test_key());
  Rng rng(15);
  for (const std::size_t n : {1u, 2u, 3u, 7u, 8u, 9u, 15u, 16u, 23u}) {
    std::vector<Block> in(n), out(n);
    for (auto& block : in)
      for (auto& b : block) b = static_cast<std::uint8_t>(rng.next_below(256));
    aes->encrypt_blocks(in.data(), out.data(), n);
    for (std::size_t i = 0; i < n; ++i)
      EXPECT_EQ(out[i], aes->encrypt(in[i])) << "n=" << n << " i=" << i;
    std::vector<Block> inplace = in;
    aes->encrypt_blocks(inplace.data(), inplace.data(), n);
    EXPECT_EQ(inplace, out) << "n=" << n << " (in-place)";
  }
}

// ------------------------------------------------------- pad caching --

TEST(PadCache, LineCipherHitsOnRepeatedNonceAndCountsIt) {
  obs::Registry registry;
  LineCipher cipher(test_key());
  const auto hit = registry.counter("crypto.pad", "hit");
  const auto miss = registry.counter("crypto.pad", "miss");
  cipher.set_pad_counters(hit, miss);

  Rng rng(15);
  const LineData pt = random_line(rng);
  const auto first = cipher.encrypt(pt, 0x1000, 1);
  EXPECT_EQ(hit.value(), 0u);
  EXPECT_EQ(miss.value(), 1u);
  // Same nonce again: served from the cache, identical keystream.
  EXPECT_EQ(cipher.encrypt(pt, 0x1000, 1), first);
  EXPECT_EQ(hit.value(), 1u);
  EXPECT_EQ(miss.value(), 1u);
  EXPECT_EQ(cipher.decrypt(first, 0x1000, 1), pt);
  EXPECT_EQ(hit.value(), 2u);
}

TEST(PadCache, VersionBumpInvalidates) {
  // Coherence: after a version bump the cache must not serve the old pad —
  // the cached and uncached ciphers must agree at every version.
  LineCipher cached(test_key());
  LineCipher uncached(test_key());
  uncached.set_pad_cache_enabled(false);
  Rng rng(16);
  const LineData pt = random_line(rng);
  LineData previous{};
  for (std::uint64_t version = 1; version <= 8; ++version) {
    const auto warm = cached.encrypt(pt, 0x2000, version);  // fill
    EXPECT_EQ(cached.encrypt(pt, 0x2000, version), warm);   // hot
    EXPECT_EQ(uncached.encrypt(pt, 0x2000, version), warm);
    EXPECT_NE(warm, previous);  // fresh keystream per version
    previous = warm;
  }
}

TEST(PadCache, MultilinearPadCacheCoherentAcrossVersions) {
  MultilinearMac cached(test_key());
  MultilinearMac uncached(test_key());
  uncached.set_pad_cache_enabled(false);
  Rng rng(17);
  const LineData data = random_line(rng);
  for (std::uint64_t version = 1; version <= 8; ++version) {
    const auto warm = cached.tag(0x3000, version, data);
    EXPECT_EQ(cached.tag(0x3000, version, data), warm);
    EXPECT_EQ(uncached.tag(0x3000, version, data), warm);
  }
  // And the cached tag still changes when the data changes.
  LineData flipped = data;
  flipped[0] ^= 1;
  EXPECT_NE(cached.tag(0x3000, 1, flipped), cached.tag(0x3000, 1, data));
}

TEST(PadCache, MultilinearCountsHitsAndMisses) {
  obs::Registry registry;
  MultilinearMac mac(test_key());
  const auto hit = registry.counter("crypto.pad", "hit");
  const auto miss = registry.counter("crypto.pad", "miss");
  mac.set_pad_counters(hit, miss);
  const LineData data{};
  (void)mac.tag(0x40, 1, data);
  (void)mac.tag(0x40, 1, data);
  (void)mac.tag(0x40, 2, data);  // version bump: miss, not a stale hit
  EXPECT_EQ(miss.value(), 2u);
  EXPECT_EQ(hit.value(), 1u);
}

}  // namespace
}  // namespace meecc::crypto
