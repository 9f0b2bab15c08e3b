// The AES-128 block function behind the line cipher and the MACs.
//
// There is exactly one selection and it is not a user option:
// make_aes_backend() returns the AES-NI kernel when CPUID reports the AES
// extension, and otherwise the byte-wise FIPS-197 Aes128 (crypto/aes128.h),
// which is also the oracle the AES-NI kernel is validated against. Both
// compute the identical function, so which one runs changes only how fast
// an experiment finishes, never its results (the timing MODEL is charged in
// simulated cycles, not host time).
#pragma once

#include <cstddef>
#include <memory>
#include <string_view>

#include "crypto/aes128.h"

namespace meecc::crypto {

/// One AES-128 encryption implementation holding its expanded key schedule.
/// The simulator only ever runs the cipher forward (CTR keystreams, CBC-MAC
/// chaining, multilinear pads), so there is no block decrypt here.
class AesBackend {
 public:
  virtual ~AesBackend() = default;

  /// "aesni" or "reference" — which implementation the factory picked.
  virtual std::string_view name() const = 0;

  virtual Block encrypt(const Block& plaintext) const = 0;

  /// Encrypts `n` independent blocks: out[i] = AES_K(in[i]). Bit-identical
  /// to calling encrypt() in a loop — the point is host speed: the AES-NI
  /// kernel keeps up to eight blocks in flight at once (the AES round
  /// instructions are pipelined, so 4-8 independent blocks cost barely more
  /// than one). The line cipher's four-block keystream is the caller. `in`
  /// and `out` may alias element-wise (out == in) but must not partially
  /// overlap.
  virtual void encrypt_blocks(const Block* in, Block* out,
                              std::size_t n) const {
    for (std::size_t i = 0; i < n; ++i) out[i] = encrypt(in[i]);
  }
};

/// Keyed AES-128: AES-NI when this CPU has it, else the byte-wise Aes128.
std::unique_ptr<const AesBackend> make_aes_backend(const Key128& key);

}  // namespace meecc::crypto
