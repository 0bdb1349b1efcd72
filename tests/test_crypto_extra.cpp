// Additional crypto coverage: more published vectors, parameterized
// property sweeps across key sizes and message lengths, and adversarial
// byte-level robustness of every deserializer.
#include <gtest/gtest.h>

#include "crypto/bignum.hpp"
#include "crypto/box.hpp"
#include "crypto/cert.hpp"
#include "crypto/chacha20.hpp"
#include "crypto/hmac.hpp"
#include "crypto/rsa.hpp"
#include "crypto/sha256.hpp"
#include "test_seed.hpp"

namespace cb::crypto {
namespace {

// --- More NIST / RFC vectors -------------------------------------------------

TEST(Sha256Extra, Nist448BitMessage) {
  EXPECT_EQ(to_hex(sha256(to_bytes("abcdefghbcdefghicdefghijdefghijkefghijklfghijklmghijk"
                                   "lmnhijklmnoijklmnopjklmnopqklmnopqrlmnopqrsmnopqrstnop"
                                   "qrstu"))),
            "cf5b16a778af8380036ce59e7b0492370b249b11e8f07a51afac45037afee9d1");
}

TEST(Sha256Extra, SingleByteAndBoundaryLengths) {
  // 55/56/64-byte messages straddle the padding boundary.
  for (std::size_t n : {0u, 1u, 55u, 56u, 57u, 63u, 64u, 65u, 127u, 128u}) {
    const Bytes m(n, 'x');
    Sha256 incremental;
    for (std::size_t i = 0; i < n; ++i) incremental.update(BytesView(&m[i], 1));
    EXPECT_EQ(incremental.finish(), sha256(m)) << "length " << n;
  }
}

TEST(Sha256Extra, PaddingBoundaryDigests) {
  // finish() pads in one update(): 0x80 and the length share the last block
  // up to 55 buffered bytes and spill into a second block from 56 on.
  // Expected digests from Python's hashlib over bytes (31i + 7) mod 256.
  const auto message = [](std::size_t n) {
    Bytes m(n);
    for (std::size_t i = 0; i < n; ++i) m[i] = static_cast<std::uint8_t>(i * 31 + 7);
    return m;
  };
  const std::pair<std::size_t, const char*> cases[] = {
      {0, "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"},
      {55, "8aa994584139d128848eeebc4e815639ba5ab6e6e39574195a63ac4f14f7c43b"},
      {56, "ad574708f75c044c9b85de64cb568ee7711ff4f36448c6242f053ba8f6cc2b63"},
      {63, "280ed3e8ff1df845b2e7dfe6ac6cee817bef20e783cc65abc41b818b4d2fe076"},
      {64, "c6ab9724ade5b6a7a1edfffb12f3aa9181351355af8fd08c919952ad211339dd"},
      {119, "3d610547d68216dedf7435a4fb6260353911f6b3fd3f18805ddb8be285d726fe"},
      {120, "1f80156a804cb7862ad113e8200e9d74499723e7c7854d5f48776d3148e09656"},
  };
  for (const auto& [n, digest] : cases) {
    EXPECT_EQ(to_hex(sha256(message(n))), digest) << "length " << n;
  }

  // The same 200 bytes fed in uneven pieces, so finish() starts from a
  // partly filled buffer.
  const Bytes m = message(200);
  Sha256 ctx;
  std::size_t off = 0;
  for (std::size_t piece : {1u, 63u, 64u, 57u, 15u}) {
    ctx.update(BytesView(m).subspan(off, piece));
    off += piece;
  }
  ASSERT_EQ(off, m.size());
  EXPECT_EQ(to_hex(ctx.finish()),
            "44cae5223d431caed4a9e32271d6abf17c3f2f4abac45fcdb48a99fcc6072a09");
}

TEST(HmacExtra, Rfc4231Case3) {
  const Bytes key(20, 0xaa);
  const Bytes data(50, 0xdd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe");
}

TEST(HmacExtra, Rfc4231Case4) {
  const Bytes key = from_hex("0102030405060708090a0b0c0d0e0f10111213141516171819");
  const Bytes data(50, 0xcd);
  EXPECT_EQ(to_hex(hmac_sha256(key, data)),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b");
}

TEST(HkdfExtra, Rfc5869Case2LongInputs) {
  Bytes ikm, salt, info;
  for (int i = 0x00; i <= 0x4f; ++i) ikm.push_back(static_cast<std::uint8_t>(i));
  for (int i = 0x60; i <= 0xaf; ++i) salt.push_back(static_cast<std::uint8_t>(i));
  for (int i = 0xb0; i <= 0xff; ++i) info.push_back(static_cast<std::uint8_t>(i));
  const Bytes okm = hkdf(salt, ikm, info, 82);
  EXPECT_EQ(to_hex(okm),
            "b11e398dc80327a1c8e7f78c596a49344f012eda2d4efad8a050cc4c19afa97c"
            "59045a99cac7827271cb41c65e590e09da3275600c2f09b8367793a9aca3db71"
            "cc30c58179ec3e87c14c01d5c1f3434f1d87");
}

TEST(HkdfExtra, Rfc5869Case3NoSaltNoInfo) {
  const Bytes ikm(22, 0x0b);
  EXPECT_EQ(to_hex(hkdf({}, ikm, {}, 42)),
            "8da4e775a563c18f715f802a063c5a31b8a11f5c5ee1879ec3454e5f3c738d2d"
            "9d201395faa4b61a96c8");
}

// --- BigNum edge cases --------------------------------------------------------

TEST(BigNumExtra, ZeroBehaviour) {
  const BigNum zero;
  EXPECT_TRUE(zero.is_zero());
  EXPECT_EQ(zero.bit_length(), 0u);
  EXPECT_TRUE(zero.to_bytes_be().empty());
  EXPECT_TRUE(zero + zero == zero);
  EXPECT_TRUE(zero * BigNum{12345} == zero);
  EXPECT_THROW(BigNum{1}.divmod(zero), std::invalid_argument);
  EXPECT_THROW(zero - BigNum{1}, std::invalid_argument);
}

TEST(BigNumExtra, FixedWidthExport) {
  const BigNum v{0x1234};
  EXPECT_EQ(to_hex(v.to_bytes_be(4)), "00001234");
  EXPECT_THROW(v.to_bytes_be(1), std::invalid_argument);
}

TEST(BigNumExtra, LeadingZeroBytesIgnoredOnImport) {
  const BigNum a = BigNum::from_bytes_be(from_hex("00000042"));
  EXPECT_TRUE(a == BigNum{0x42});
}

TEST(BigNumExtra, DivModBySelfAndOne) {
  const std::uint64_t seed = cb::test::seed_or(3);
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << seed);
  Rng rng(seed);
  const BigNum a = BigNum::from_bytes_be(rng.random_bytes(24));
  auto [q1, r1] = a.divmod(a);
  EXPECT_TRUE(q1 == BigNum{1});
  EXPECT_TRUE(r1.is_zero());
  auto [q2, r2] = a.divmod(BigNum{1});
  EXPECT_TRUE(q2 == a);
  EXPECT_TRUE(r2.is_zero());
}

TEST(BigNumExtra, PowmodEdges) {
  const BigNum m{97};
  EXPECT_TRUE(BigNum{5}.powmod(BigNum{}, m) == BigNum{1});   // x^0 = 1
  EXPECT_TRUE(BigNum{}.powmod(BigNum{5}, m) == BigNum{});    // 0^x = 0
  EXPECT_TRUE(BigNum{98}.powmod(BigNum{1}, m) == BigNum{1}); // reduced base
}

TEST(BigNumExtra, ModU32MatchesDivMod) {
  const std::uint64_t seed = cb::test::seed_or(17);
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << seed);
  Rng rng(seed);
  for (int i = 0; i < 50; ++i) {
    const BigNum a = BigNum::from_bytes_be(rng.random_bytes(1 + rng.next_below(30)));
    const std::uint32_t m = 2 + static_cast<std::uint32_t>(rng.next_below(1u << 30));
    const auto [q, r] = a.divmod(BigNum{m});
    EXPECT_TRUE(BigNum{a.mod_u32(m)} == r);
  }
}

// --- RSA across key sizes (CRT correctness) -----------------------------------

class RsaKeySizeSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RsaKeySizeSweep, SignVerifyEncryptDecrypt) {
  Rng rng(GetParam());
  const RsaKeyPair keys = RsaKeyPair::generate(rng, GetParam());
  const Bytes msg = rng.random_bytes(40);

  const Bytes sig = keys.sign(msg);
  EXPECT_TRUE(keys.public_key().verify(msg, sig));
  Bytes tampered = msg;
  tampered[0] ^= 1;
  EXPECT_FALSE(keys.public_key().verify(tampered, sig));

  const Bytes pt = rng.random_bytes(24);
  auto ct = keys.public_key().encrypt(pt, rng);
  ASSERT_TRUE(ct.ok());
  auto out = keys.decrypt(ct.value());
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), pt);
}

INSTANTIATE_TEST_SUITE_P(KeySizes, RsaKeySizeSweep, ::testing::Values(384, 512, 768, 1024));

TEST(RsaExtra, KeygenIsByteStable) {
  // Key generation draws Miller-Rabin bases from the caller's RNG, so the
  // primality test must keep its draw sequence: same seed, same modulus,
  // same RNG state afterwards. The digests (SHA-256 of the big-endian
  // modulus) and next draws are frozen: every seeded key in the simulator,
  // and so every fingerprint, depends on them.
  struct Case {
    std::uint64_t seed;
    std::size_t bits;
    const char* modulus_digest;
    std::uint64_t next_draw;
  };
  const Case cases[] = {
      {1, 512, "bcab574f16a8259b964e14734787e9874967d8aab3d1292a819cd92c61dbc23f",
       9299927363573429491ULL},
      {2, 512, "68fec4bc751b26e6a71850f43f6176b54cdbbe91f1c53fcae4080530cd32207e",
       5764496663267577297ULL},
      {3, 1024, "2c57bbf11a9b5e64ba5395e13792e5248f82ea3a9a9dc69a9cd3c3cc8556a6c9",
       17413335253427622024ULL},
      {4, 192, "11215a7d0efe685f97898df60951fb79264f5b40ec4d77ddfa32227f9fcca4f2",
       15370860387984627569ULL},
      {6, 768, "1707e2fe174e34dbb1dc9c4f69932f55e231f954719da185d2449ee28048c7d3",
       16649033294968868814ULL},
  };
  for (const Case& c : cases) {
    Rng rng(c.seed);
    const RsaKeyPair keys = RsaKeyPair::generate(rng, c.bits);
    EXPECT_EQ(to_hex(sha256(keys.public_key().modulus().to_bytes_be())), c.modulus_digest)
        << "seed " << c.seed << " bits " << c.bits;
    EXPECT_EQ(rng.next_u64(), c.next_draw) << "seed " << c.seed << " bits " << c.bits;
  }
}

TEST(RsaExtra, CrtMatchesPlainExponentiation) {
  // The signature must verify under pure public-side math — which it only
  // can if the CRT private op equals m^d mod n.
  Rng rng(404);
  const RsaKeyPair keys = RsaKeyPair::generate(rng, 512);
  for (int i = 0; i < 10; ++i) {
    const Bytes msg = rng.random_bytes(1 + rng.next_below(200));
    EXPECT_TRUE(keys.public_key().verify(msg, keys.sign(msg)));
  }
}

TEST(RsaExtra, DeserializeGarbage) {
  Rng rng(7);
  for (int i = 0; i < 200; ++i) {
    (void)RsaPublicKey::deserialize(rng.random_bytes(rng.next_below(60)));
  }
  SUCCEED();  // must not crash/throw
}

// --- Certificates / boxes robustness ------------------------------------------

TEST(CertExtra, DeserializeGarbage) {
  Rng rng(8);
  for (int i = 0; i < 200; ++i) {
    (void)Certificate::deserialize(rng.random_bytes(rng.next_below(100)));
  }
  SUCCEED();
}

TEST(BoxExtra, OpenGarbage) {
  Rng rng(9);
  const RsaKeyPair keys = RsaKeyPair::generate(rng, 512);
  for (int i = 0; i < 200; ++i) {
    EXPECT_FALSE(open(keys, rng.random_bytes(rng.next_below(300))).ok());
  }
}

TEST(BoxExtra, SealIsByteStable) {
  // seal() and symmetric_seal() derive their enc/mac keys with HKDF from
  // the drawn master secret; any change in how the keys are derived changes
  // the sealed bytes. The digests (SHA-256 of the box) and next draws are
  // frozen: settlement logs and every billing fingerprint depend on them.
  Rng rng(31);
  const RsaKeyPair keys = RsaKeyPair::generate(rng, 512);
  const Bytes msg = to_bytes("cellbricks traffic report");
  EXPECT_EQ(to_hex(sha256(seal(keys.public_key(), msg, rng))),
            "1f35af0c422deec5b8e65e9e0696c87713b8ab9a6079a0466979c5857c531542");
  EXPECT_EQ(to_hex(sha256(symmetric_seal(to_bytes("shared key"), msg, rng))),
            "e009c9c7a3235e8065534547f08b001813ebc542bb4c87a5d943b72a1a40bb3d");
  EXPECT_EQ(rng.next_u64(), 11618734226842932738ULL);
}

class BoxPayloadSweep : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BoxPayloadSweep, RoundTripAnySize) {
  const std::uint64_t seed = cb::test::seed_or(100) + GetParam();
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << (seed - GetParam()));
  Rng rng(seed);
  static const RsaKeyPair keys = [] {
    Rng kr(55);
    return RsaKeyPair::generate(kr, 512);
  }();
  const Bytes msg = rng.random_bytes(GetParam());
  auto out = open(keys, seal(keys.public_key(), msg, rng));
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out.value(), msg);
}

INSTANTIATE_TEST_SUITE_P(Sizes, BoxPayloadSweep,
                         ::testing::Values(0, 1, 31, 32, 33, 63, 64, 1000, 20000));

TEST(MontgomeryDiff, MatchesReferencePowmodOnRandomOddModuli) {
  // Differential test: the Montgomery/CIOS fast path must agree with the
  // reference square-and-multiply for random bases/exponents/odd moduli of
  // assorted widths (including non-limb-aligned ones).
  const std::uint64_t seed = cb::test::seed_or(0xD1FF);
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << seed);
  Rng rng(seed);
  for (std::size_t bits : {2u, 17u, 33u, 64u, 65u, 127u, 256u, 511u, 1024u}) {
    for (int trial = 0; trial < 4; ++trial) {
      const BigNum m = BigNum::random_odd(rng, bits);
      const BigNum base = BigNum::random_below(rng, m + m);  // may exceed m
      const BigNum exp = BigNum::random_below(rng, m);
      EXPECT_EQ(base.powmod(exp, m), base.powmod_reference(exp, m))
          << "bits=" << bits << " trial=" << trial;
    }
  }
}

TEST(MontgomeryDiff, EdgeOperands) {
  const std::uint64_t seed = cb::test::seed_or(77);
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << seed);
  Rng rng(seed);
  const BigNum m = BigNum::random_odd(rng, 128);
  const BigNum zero{};
  const BigNum one{1};
  // 0^e, b^0, 1^e, b^1, and base == multiple of m.
  EXPECT_EQ(zero.powmod(BigNum{5}, m), zero.powmod_reference(BigNum{5}, m));
  EXPECT_EQ(BigNum{5}.powmod(zero, m), one);
  EXPECT_EQ(one.powmod(BigNum{123456}, m), one);
  EXPECT_EQ(BigNum{7}.powmod(one, m), BigNum{7});
  EXPECT_EQ(m.powmod(BigNum{3}, m), zero);
  EXPECT_EQ((m + m).powmod(BigNum{2}, m), zero);
  // Montgomery context rejects even/trivial moduli.
  EXPECT_THROW(Montgomery(BigNum{10}), std::invalid_argument);
  EXPECT_THROW(Montgomery(BigNum{1}), std::invalid_argument);
  // Even modulus still works through the reference fallback.
  EXPECT_EQ(BigNum{7}.powmod(BigNum{13}, BigNum{100}),
            BigNum{7}.powmod_reference(BigNum{13}, BigNum{100}));
}

// Odd modulus of exactly `limbs` 64-bit limbs whose top limb is `top`
// (random when 0); the rest is random.
BigNum odd_modulus(Rng& rng, std::size_t limbs, std::uint64_t top) {
  Bytes bytes = rng.random_bytes(limbs * 8);
  if (top == 0) top = rng.next_u64() | (1ULL << 63);
  for (std::size_t i = 0; i < 8; ++i) bytes[i] = static_cast<std::uint8_t>(top >> (56 - 8 * i));
  bytes.back() |= 1;
  return BigNum::from_bytes_be(bytes);
}

TEST(MontgomeryDiff, EveryWidthAndEdgeOperand) {
  // Montgomery::mul runs compile-time-width kernels at 4, 8 and 16 limbs and
  // the run-time-width loop elsewhere; the sweep covers 1..17 limbs, so both
  // sides of each dispatch boundary. Moduli with an all-ones top limb leave
  // the least headroom below R; a top limb of 1 the most. Each pow is checked
  // against the square-and-multiply reference.
  const std::uint64_t seed = cb::test::seed_or(0x11B5);
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << seed);
  Rng rng(seed);
  for (std::size_t limbs = 1; limbs <= 17; ++limbs) {
    for (std::uint64_t top : {std::uint64_t{0}, ~std::uint64_t{0}, std::uint64_t{1}}) {
      const BigNum n = odd_modulus(rng, limbs, top);
      if (n == BigNum{1}) continue;  // limbs == 1 and top == 1
      const Montgomery mont(n);
      const BigNum one{1};
      const BigNum all_ones = (one << n.bit_length()) - one;
      const BigNum bases[] = {BigNum{}, one, n - one, n, n + n - one,
                              BigNum::random_below(rng, n)};
      const BigNum exponents[] = {BigNum{}, one, BigNum{2}, all_ones};
      for (const BigNum& b : bases) {
        for (const BigNum& e : exponents) {
          ASSERT_EQ(mont.pow(b, e), b.powmod_reference(e, n))
              << "limbs=" << limbs << " top=" << top << " base=" << b.to_string_hex()
              << " exp=" << e.to_string_hex();
        }
      }
    }
  }
}

TEST(MontgomeryDiff, SquaringKernelMatchesSelfMultiply) {
  // pow(b, 2) forms its one table entry with the multiply kernel (b * b);
  // pow(b, 16) is table entry b followed by four squaring-kernel passes. So
  // four chained pow(., 2) must equal one pow(., 16), at every width.
  const std::uint64_t seed = cb::test::seed_or(0x5C2);
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << seed);
  Rng rng(seed);
  const BigNum two{2};
  const BigNum sixteen{16};
  for (std::size_t limbs = 1; limbs <= 17; ++limbs) {
    for (std::uint64_t top : {std::uint64_t{0}, ~std::uint64_t{0}, std::uint64_t{2}}) {
      const BigNum n = odd_modulus(rng, limbs, top);
      const Montgomery mont(n);
      for (int trial = 0; trial < 4; ++trial) {
        const BigNum b = trial == 0 ? n - BigNum{1} : BigNum::random_below(rng, n);
        BigNum by_mul = b;
        for (int i = 0; i < 4; ++i) by_mul = mont.pow(by_mul, two);
        EXPECT_EQ(mont.pow(b, sixteen), by_mul) << "limbs=" << limbs << " top=" << top;
        EXPECT_EQ(by_mul, b.powmod_reference(sixteen, n)) << "limbs=" << limbs << " top=" << top;
      }
    }
  }
}

TEST(MontgomeryDiff, CrtSignMatchesPlainExponentiationAcrossSizes) {
  // CRT + Montgomery private op must round-trip against the public op for
  // edge modulus sizes (including odd bit counts), and signatures must
  // verify with the cached-context verify path.
  const std::uint64_t seed = cb::test::seed_or(0xC47);
  SCOPED_TRACE(::testing::Message() << "replay with CB_TEST_SEED=" << seed);
  Rng rng(seed);
  for (std::size_t bits : {128u, 192u, 512u}) {
    RsaKeyPair keys = RsaKeyPair::generate(rng, bits);
    const Bytes msg = rng.random_bytes(64);
    if (bits >= 512) {  // signature blocks need >= digest + 11 bytes
      const Bytes sig = keys.sign(msg);
      EXPECT_TRUE(keys.public_key().verify(msg, sig)) << "bits=" << bits;
      Bytes tampered = sig;
      tampered[tampered.size() / 2] ^= 1;
      EXPECT_FALSE(keys.public_key().verify(msg, tampered));
    }
    // Encrypt/decrypt round-trip exercises private_op on small plaintexts.
    const Bytes pt = rng.random_bytes(bits / 8 - 11);
    auto ct = keys.public_key().encrypt(pt, rng);
    ASSERT_TRUE(ct.ok());
    auto back = keys.decrypt(ct.value());
    ASSERT_TRUE(back.ok());
    EXPECT_EQ(back.value(), pt);
  }
}

TEST(ChaChaExtra, CounterContinuity) {
  // Encrypting [A|B] in one call equals encrypting A at counter c and B at
  // counter c + blocks(A) when A is block-aligned.
  Rng rng(11);
  const Bytes key = rng.random_bytes(32);
  const Bytes nonce = rng.random_bytes(12);
  const Bytes data = rng.random_bytes(256);
  const Bytes whole = chacha20_xor(key, nonce, 5, data);
  const Bytes a = chacha20_xor(key, nonce, 5, BytesView(data.data(), 128));
  const Bytes b = chacha20_xor(key, nonce, 7, BytesView(data.data() + 128, 128));
  Bytes glued = a;
  glued.insert(glued.end(), b.begin(), b.end());
  EXPECT_EQ(whole, glued);
}

}  // namespace
}  // namespace cb::crypto
