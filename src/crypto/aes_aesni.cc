// AES-NI backend: one hardware round instruction per AES round. Compiled
// with per-function target attributes (no global -maes), so the binary
// still runs on CPUs without the extension — make_aesni_backend() consults
// CPUID before ever constructing it. -DMEECC_NO_SIMD=ON compiles it out
// (the same switch as the SIMD tag probe), so that build runs the portable
// Aes128 everywhere.
//
// Round keys come from the shared portable key schedule (aes_internals.h)
// instead of aeskeygenassist gymnastics: key setup is off the hot path, and
// one schedule shared with Aes128 means the two cannot disagree.
#include "crypto/aes_backend.h"
#include "crypto/aes_internals.h"

#if (defined(__x86_64__) || defined(__i386__)) && !defined(MEECC_NO_SIMD)
#define MEECC_AESNI_COMPILED 1
#include <wmmintrin.h>
#endif

namespace meecc::crypto::detail {

#ifdef MEECC_AESNI_COMPILED

namespace {

class AesniBackend final : public AesBackend {
 public:
  explicit AesniBackend(const Key128& key) { init(key); }

  std::string_view name() const override { return "aesni"; }

  __attribute__((target("aes,sse2"))) Block
  encrypt(const Block& plaintext) const override {
    __m128i s =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(plaintext.data()));
    s = _mm_xor_si128(s, enc_[0]);
    for (int round = 1; round < 10; ++round) s = _mm_aesenc_si128(s, enc_[round]);
    s = _mm_aesenclast_si128(s, enc_[10]);
    Block out;
    _mm_storeu_si128(reinterpret_cast<__m128i*>(out.data()), s);
    return out;
  }

  /// Pipelined multi-block encryption: the aesenc units are fully
  /// pipelined (latency ~4 cycles, throughput 1-2/cycle), so running up to
  /// eight independent states through each round back-to-back hides nearly
  /// all of the per-block latency. Remainders shorter than 8 loop the same
  /// code with a partial state count.
  __attribute__((target("aes,sse2"))) void encrypt_blocks(
      const Block* in, Block* out, std::size_t n) const override {
    std::size_t i = 0;
    while (i < n) {
      const std::size_t lane_count = n - i < 8 ? n - i : 8;
      __m128i s[8];
      for (std::size_t lane = 0; lane < lane_count; ++lane)
        s[lane] = _mm_xor_si128(
            _mm_loadu_si128(
                reinterpret_cast<const __m128i*>(in[i + lane].data())),
            enc_[0]);
      for (int round = 1; round < 10; ++round)
        for (std::size_t lane = 0; lane < lane_count; ++lane)
          s[lane] = _mm_aesenc_si128(s[lane], enc_[round]);
      for (std::size_t lane = 0; lane < lane_count; ++lane)
        _mm_storeu_si128(reinterpret_cast<__m128i*>(out[i + lane].data()),
                         _mm_aesenclast_si128(s[lane], enc_[10]));
      i += lane_count;
    }
  }

 private:
  __attribute__((target("aes,sse2"))) void init(const Key128& key) {
    const RoundKeys round_keys = expand_key(key);
    for (int round = 0; round < 11; ++round)
      enc_[round] = _mm_loadu_si128(
          reinterpret_cast<const __m128i*>(round_keys[round].data()));
  }

  __m128i enc_[11];
};

}  // namespace

std::unique_ptr<const AesBackend> make_aesni_backend(const Key128& key) {
  if (!__builtin_cpu_supports("aes")) return nullptr;
  return std::make_unique<AesniBackend>(key);
}

#else  // !MEECC_AESNI_COMPILED

std::unique_ptr<const AesBackend> make_aesni_backend(const Key128&) {
  return nullptr;
}

#endif

}  // namespace meecc::crypto::detail
