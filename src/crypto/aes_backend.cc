#include "crypto/aes_backend.h"

namespace meecc::crypto {

namespace detail {
/// Defined in aes_aesni.cc. Null when the CPU lacks the AES extension or
/// the build is -DMEECC_NO_SIMD=ON.
std::unique_ptr<const AesBackend> make_aesni_backend(const Key128& key);
}  // namespace detail

namespace {

/// The byte-wise FIPS-197 cipher: the path on CPUs without AES-NI.
class ReferenceBackend final : public AesBackend {
 public:
  explicit ReferenceBackend(const Key128& key) : aes_(key) {}
  std::string_view name() const override { return "reference"; }
  Block encrypt(const Block& plaintext) const override {
    return aes_.encrypt(plaintext);
  }

 private:
  Aes128 aes_;
};

}  // namespace

std::unique_ptr<const AesBackend> make_aes_backend(const Key128& key) {
  if (auto aesni = detail::make_aesni_backend(key)) return aesni;
  return std::make_unique<ReferenceBackend>(key);
}

}  // namespace meecc::crypto
