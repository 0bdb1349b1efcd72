#include "crypto/bignum.hpp"

#include <algorithm>
#include <stdexcept>

namespace cb::crypto {

namespace {
constexpr std::uint64_t kBase = 1ULL << 32;

// Small primes for trial division before Miller-Rabin.
constexpr std::uint32_t kSmallPrimes[] = {
    3,   5,   7,   11,  13,  17,  19,  23,  29,  31,  37,  41,  43,  47,  53,
    59,  61,  67,  71,  73,  79,  83,  89,  97,  101, 103, 107, 109, 113, 127,
    131, 137, 139, 149, 151, 157, 163, 167, 173, 179, 181, 191, 193, 197, 199,
    211, 223, 227, 229, 233, 239, 241, 251, 257, 263, 269, 271, 277, 281, 283,
    293, 307, 311, 313, 317, 331, 337, 347, 349, 353, 359, 367, 373, 379, 383,
    389, 397, 401, 409, 419, 421, 431, 433, 439, 443, 449, 457, 461, 463, 467};
}  // namespace

BigNum::BigNum(std::uint64_t v) {
  if (v != 0) limbs_.push_back(static_cast<std::uint32_t>(v));
  if (v >> 32) limbs_.push_back(static_cast<std::uint32_t>(v >> 32));
}

void BigNum::trim() {
  while (!limbs_.empty() && limbs_.back() == 0) limbs_.pop_back();
}

BigNum BigNum::from_bytes_be(BytesView data) {
  BigNum out;
  out.limbs_.assign((data.size() + 3) / 4, 0);
  for (std::size_t i = 0; i < data.size(); ++i) {
    const std::size_t byte_index = data.size() - 1 - i;  // significance
    out.limbs_[i / 4] |= static_cast<std::uint32_t>(data[byte_index]) << ((i % 4) * 8);
  }
  out.trim();
  return out;
}

Bytes BigNum::to_bytes_be() const {
  if (is_zero()) return {};
  const std::size_t nbytes = (bit_length() + 7) / 8;
  return to_bytes_be(nbytes);
}

Bytes BigNum::to_bytes_be(std::size_t width) const {
  if (bit_length() > width * 8) throw std::invalid_argument("BigNum: value wider than requested");
  Bytes out(width, 0);
  for (std::size_t i = 0; i < width; ++i) {
    const std::size_t limb = i / 4;
    if (limb >= limbs_.size()) break;
    out[width - 1 - i] = static_cast<std::uint8_t>(limbs_[limb] >> ((i % 4) * 8));
  }
  return out;
}

std::size_t BigNum::bit_length() const {
  if (limbs_.empty()) return 0;
  std::size_t bits = (limbs_.size() - 1) * 32;
  std::uint32_t top = limbs_.back();
  while (top) {
    ++bits;
    top >>= 1;
  }
  return bits;
}

bool BigNum::bit(std::size_t i) const {
  const std::size_t limb = i / 32;
  if (limb >= limbs_.size()) return false;
  return (limbs_[limb] >> (i % 32)) & 1;
}

int BigNum::compare(const BigNum& o) const {
  if (limbs_.size() != o.limbs_.size()) {
    return limbs_.size() < o.limbs_.size() ? -1 : 1;
  }
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    if (limbs_[i] != o.limbs_[i]) return limbs_[i] < o.limbs_[i] ? -1 : 1;
  }
  return 0;
}

BigNum BigNum::operator+(const BigNum& o) const {
  BigNum out;
  const std::size_t n = std::max(limbs_.size(), o.limbs_.size());
  out.limbs_.resize(n + 1, 0);
  std::uint64_t carry = 0;
  for (std::size_t i = 0; i < n; ++i) {
    std::uint64_t sum = carry;
    if (i < limbs_.size()) sum += limbs_[i];
    if (i < o.limbs_.size()) sum += o.limbs_[i];
    out.limbs_[i] = static_cast<std::uint32_t>(sum);
    carry = sum >> 32;
  }
  out.limbs_[n] = static_cast<std::uint32_t>(carry);
  out.trim();
  return out;
}

BigNum BigNum::sub_unchecked(const BigNum& a, const BigNum& b) {
  BigNum out;
  out.limbs_.resize(a.limbs_.size(), 0);
  std::int64_t borrow = 0;
  for (std::size_t i = 0; i < a.limbs_.size(); ++i) {
    std::int64_t diff = static_cast<std::int64_t>(a.limbs_[i]) - borrow;
    if (i < b.limbs_.size()) diff -= b.limbs_[i];
    if (diff < 0) {
      diff += static_cast<std::int64_t>(kBase);
      borrow = 1;
    } else {
      borrow = 0;
    }
    out.limbs_[i] = static_cast<std::uint32_t>(diff);
  }
  out.trim();
  return out;
}

BigNum BigNum::operator-(const BigNum& o) const {
  if (*this < o) throw std::invalid_argument("BigNum: negative subtraction");
  return sub_unchecked(*this, o);
}

BigNum BigNum::operator*(const BigNum& o) const {
  if (is_zero() || o.is_zero()) return BigNum{};
  BigNum out;
  out.limbs_.assign(limbs_.size() + o.limbs_.size(), 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    std::uint64_t carry = 0;
    const std::uint64_t ai = limbs_[i];
    for (std::size_t j = 0; j < o.limbs_.size(); ++j) {
      const std::uint64_t cur = static_cast<std::uint64_t>(out.limbs_[i + j]) + ai * o.limbs_[j] + carry;
      out.limbs_[i + j] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
    }
    std::size_t k = i + o.limbs_.size();
    while (carry) {
      const std::uint64_t cur = static_cast<std::uint64_t>(out.limbs_[k]) + carry;
      out.limbs_[k] = static_cast<std::uint32_t>(cur);
      carry = cur >> 32;
      ++k;
    }
  }
  out.trim();
  return out;
}

BigNum BigNum::operator<<(std::size_t bits) const {
  if (is_zero()) return {};
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  BigNum out;
  out.limbs_.assign(limbs_.size() + limb_shift + 1, 0);
  for (std::size_t i = 0; i < limbs_.size(); ++i) {
    const std::uint64_t v = static_cast<std::uint64_t>(limbs_[i]) << bit_shift;
    out.limbs_[i + limb_shift] |= static_cast<std::uint32_t>(v);
    out.limbs_[i + limb_shift + 1] |= static_cast<std::uint32_t>(v >> 32);
  }
  out.trim();
  return out;
}

BigNum BigNum::operator>>(std::size_t bits) const {
  const std::size_t limb_shift = bits / 32;
  const std::size_t bit_shift = bits % 32;
  if (limb_shift >= limbs_.size()) return {};
  BigNum out;
  out.limbs_.assign(limbs_.size() - limb_shift, 0);
  for (std::size_t i = 0; i < out.limbs_.size(); ++i) {
    std::uint64_t v = static_cast<std::uint64_t>(limbs_[i + limb_shift]) >> bit_shift;
    if (bit_shift && i + limb_shift + 1 < limbs_.size()) {
      v |= static_cast<std::uint64_t>(limbs_[i + limb_shift + 1]) << (32 - bit_shift);
    }
    out.limbs_[i] = static_cast<std::uint32_t>(v);
  }
  out.trim();
  return out;
}

DivMod BigNum::divmod(const BigNum& divisor) const {
  if (divisor.is_zero()) throw std::invalid_argument("BigNum: division by zero");
  if (*this < divisor) return {BigNum{}, *this};

  // Single-limb fast path.
  if (divisor.limbs_.size() == 1) {
    const std::uint64_t d = divisor.limbs_[0];
    BigNum q;
    q.limbs_.assign(limbs_.size(), 0);
    std::uint64_t rem = 0;
    for (std::size_t i = limbs_.size(); i-- > 0;) {
      const std::uint64_t cur = rem << 32 | limbs_[i];
      q.limbs_[i] = static_cast<std::uint32_t>(cur / d);
      rem = cur % d;
    }
    q.trim();
    return {q, BigNum{rem}};
  }

  // Knuth Algorithm D. Normalize so the divisor's top limb has its high bit
  // set, making the quotient estimate off by at most 2.
  const std::size_t shift = 32 - (divisor.bit_length() % 32 == 0 ? 32 : divisor.bit_length() % 32);
  const BigNum u_norm = *this << shift;
  const BigNum v_norm = divisor << shift;
  const std::size_t n = v_norm.limbs_.size();
  const std::size_t m = u_norm.limbs_.size() - n;

  std::vector<std::uint32_t> u(u_norm.limbs_);
  u.push_back(0);  // u has m+n+1 limbs
  const std::vector<std::uint32_t>& v = v_norm.limbs_;

  BigNum q;
  q.limbs_.assign(m + 1, 0);

  for (std::size_t j = m + 1; j-- > 0;) {
    const std::uint64_t numer = (static_cast<std::uint64_t>(u[j + n]) << 32) | u[j + n - 1];
    std::uint64_t qhat = numer / v[n - 1];
    std::uint64_t rhat = numer % v[n - 1];
    while (qhat >= kBase ||
           qhat * v[n - 2] > ((rhat << 32) | u[j + n - 2])) {
      --qhat;
      rhat += v[n - 1];
      if (rhat >= kBase) break;
    }

    // Multiply-subtract qhat * v from u[j..j+n].
    std::int64_t borrow = 0;
    std::uint64_t carry = 0;
    for (std::size_t i = 0; i < n; ++i) {
      const std::uint64_t p = qhat * v[i] + carry;
      carry = p >> 32;
      std::int64_t t = static_cast<std::int64_t>(u[i + j]) - static_cast<std::int64_t>(p & 0xFFFFFFFF) - borrow;
      if (t < 0) {
        t += static_cast<std::int64_t>(kBase);
        borrow = 1;
      } else {
        borrow = 0;
      }
      u[i + j] = static_cast<std::uint32_t>(t);
    }
    std::int64_t t = static_cast<std::int64_t>(u[j + n]) - static_cast<std::int64_t>(carry) - borrow;
    if (t < 0) {
      // qhat was one too large: add back.
      t += static_cast<std::int64_t>(kBase);
      --qhat;
      std::uint64_t c = 0;
      for (std::size_t i = 0; i < n; ++i) {
        const std::uint64_t sum = static_cast<std::uint64_t>(u[i + j]) + v[i] + c;
        u[i + j] = static_cast<std::uint32_t>(sum);
        c = sum >> 32;
      }
      t += static_cast<std::int64_t>(c);
      t &= static_cast<std::int64_t>(0xFFFFFFFF);
    }
    u[j + n] = static_cast<std::uint32_t>(t);
    q.limbs_[j] = static_cast<std::uint32_t>(qhat);
  }
  q.trim();

  BigNum r;
  r.limbs_.assign(u.begin(), u.begin() + static_cast<std::ptrdiff_t>(n));
  r.trim();
  r = r >> shift;
  return {q, r};
}

BigNum BigNum::powmod(const BigNum& exponent, const BigNum& m) const {
  if (m.is_zero()) throw std::invalid_argument("BigNum: powmod modulus zero");
  if (m.is_odd() && m > BigNum{1}) return Montgomery(m).pow(*this, exponent);
  return powmod_reference(exponent, m);
}

BigNum BigNum::powmod_reference(const BigNum& exponent, const BigNum& m) const {
  if (m.is_zero()) throw std::invalid_argument("BigNum: powmod modulus zero");
  BigNum result{1};
  BigNum base = this->mod(m);
  const std::size_t nbits = exponent.bit_length();
  for (std::size_t i = 0; i < nbits; ++i) {
    if (exponent.bit(i)) result = (result * base).mod(m);
    base = (base * base).mod(m);
  }
  return result;
}

namespace {

using u64 = std::uint64_t;
using u128 = unsigned __int128;

// Widest modulus, in 64-bit limbs, whose Montgomery buffers live on the
// stack (2048 bits); wider moduli fall back to the heap.
constexpr std::size_t kStackLimbs = 32;

// pow_mont's workspace for an s-limb modulus: accumulator, one limb vector
// left to the caller, and the 15-entry window table.
constexpr std::size_t workspace_limbs(std::size_t s) { return 17 * s; }

// Zeroed limb buffer: on the stack up to N limbs, on the heap beyond.
template <std::size_t N>
class LimbBuffer {
 public:
  explicit LimbBuffer(std::size_t size) {
    if (size > N) {
      heap_.resize(size);
      data_ = heap_.data();
    } else {
      std::fill(stack_, stack_ + size, 0u);
    }
  }
  LimbBuffer(const LimbBuffer&) = delete;
  LimbBuffer& operator=(const LimbBuffer&) = delete;

  u64* data() { return data_; }

 private:
  u64 stack_[N];
  std::vector<u64> heap_;
  u64* data_ = stack_;
};

// out = a - b over s limbs; returns the borrow out of the top limb.
u64 sub_limbs(const u64* a, const u64* b, std::size_t s, u64* out) {
  u64 borrow = 0;
  for (std::size_t i = 0; i < s; ++i) {
    const u64 d = a[i] - b[i];
    const u64 r = d - borrow;
    borrow = static_cast<u64>(a[i] < b[i]) | static_cast<u64>(d < borrow);
    out[i] = r;
  }
  return borrow;
}

// out = t mod n for t = t[0, s] (t[s] the carry limb) below 2n: one
// conditional subtraction.
void final_subtract(const u64* t, const u64* n, std::size_t s, u64* out) {
  const u64 borrow = sub_limbs(t, n, s, out);
  if (borrow > t[s]) std::copy(t, t + s, out);  // t < n
}

// The kernels below take the width S as a template argument; S == 0 reads
// it from `s_rt` instead. `t` is scratch the caller provides: s + 2 limbs
// for the multiply, 2s + 1 for the square.

// out = a * b * R^-1 mod n by CIOS (coarsely integrated operand scanning):
// the multiply by b[i] alternates with one reduction step, keeping the
// accumulator at s+2 limbs. All terms fit in 128 bits:
// (2^64-1)^2 + 2*(2^64-1) = 2^128-1.
template <std::size_t S>
void cios_mul(const u64* a, const u64* b, const u64* n, u64 n0inv, std::size_t s_rt, u64* t,
              u64* out) {
  const std::size_t s = S ? S : s_rt;
  std::fill(t, t + s + 2, 0u);
  for (std::size_t i = 0; i < s; ++i) {
    const u64 bi = b[i];
    u64 carry = 0;
    for (std::size_t j = 0; j < s; ++j) {
      const u128 cur = static_cast<u128>(a[j]) * bi + t[j] + carry;
      t[j] = static_cast<u64>(cur);
      carry = static_cast<u64>(cur >> 64);
    }
    u128 cur = static_cast<u128>(t[s]) + carry;
    t[s] = static_cast<u64>(cur);
    t[s + 1] = static_cast<u64>(cur >> 64);

    const u64 m = t[0] * n0inv;  // t + m*n is divisible by 2^64
    carry = static_cast<u64>((static_cast<u128>(m) * n[0] + t[0]) >> 64);
    for (std::size_t j = 1; j < s; ++j) {
      const u128 c2 = static_cast<u128>(m) * n[j] + t[j] + carry;
      t[j - 1] = static_cast<u64>(c2);
      carry = static_cast<u64>(c2 >> 64);
    }
    cur = static_cast<u128>(t[s]) + carry;
    t[s - 1] = static_cast<u64>(cur);
    t[s] = t[s + 1] + static_cast<u64>(cur >> 64);
  }
  final_subtract(t, n, s, out);  // t < 2n
}

// Three-limb accumulator for one column of a product-scanning kernel.
struct Column {
  u64 lo = 0, hi = 0, top = 0;

  void add(u128 v) {
    const u128 sum = ((static_cast<u128>(hi) << 64) | lo) + v;
    top += static_cast<u64>(sum < v);
    lo = static_cast<u64>(sum);
    hi = static_cast<u64>(sum >> 64);
  }
  void add(u64 x, u64 y) { add(static_cast<u128>(x) * y); }
  void add(const Column& c) {
    add((static_cast<u128>(c.hi) << 64) | c.lo);
    top += c.top;
  }
  void double_value() {
    top = (top << 1) | (hi >> 63);
    hi = (hi << 1) | (lo >> 63);
    lo <<= 1;
  }
  void next_column() {  // drop the finished low limb
    lo = hi;
    hi = top;
    top = 0;
  }
};

// out = a * a * R^-1 mod n by product scanning: column k of the square sums
// each cross product a[i]a[k-i] (i < k-i) once, doubles it and adds the
// diagonal square; the reduction products m[j]n[k-j] join the same column,
// so the 2s-limb square is never stored. About 3s^2/2 limb products against
// the 2s^2 of cios_mul. At fixed widths the loops unroll fully, which keeps
// the column sums in registers.
template <std::size_t S>
void fips_sqr(const u64* a, const u64* n, u64 n0inv, std::size_t s_rt, u64* t, u64* out) {
  const std::size_t s = S ? S : s_rt;
  u64* m = t + s + 1;  // the reduction multipliers, one per low column
  Column acc;
#pragma GCC unroll 32
  for (std::size_t k = 0; k + 1 < 2 * s; ++k) {
    Column col;
#pragma GCC unroll 16
    for (std::size_t i = k < s ? 0 : k - s + 1; i < k - i; ++i) col.add(a[i], a[k - i]);
    col.double_value();
    if (k % 2 == 0) col.add(a[k / 2], a[k / 2]);
    acc.add(col);
    if (k < s) {
#pragma GCC unroll 16
      for (std::size_t j = 0; j < k; ++j) acc.add(m[j], n[k - j]);
      m[k] = acc.lo * n0inv;
      acc.add(m[k], n[0]);  // clears the low limb
    } else {
#pragma GCC unroll 16
      for (std::size_t j = k - s + 1; j < s; ++j) acc.add(m[j], n[k - j]);
      t[k - s] = acc.lo;
    }
    acc.next_column();
  }
  t[s - 1] = acc.lo;
  t[s] = acc.hi;
  final_subtract(t, n, s, out);  // a^2 < nR, so the result is < 2n
}

template <std::size_t S>
void mul_fixed(const u64* a, const u64* b, const u64* n, u64 n0inv, u64* out) {
  u64 t[S + 2] = {};
  cios_mul<S>(a, b, n, n0inv, S, t, out);
}

template <std::size_t S>
void sqr_fixed(const u64* a, const u64* n, u64 n0inv, u64* out) {
  u64 t[2 * S + 1] = {};
  fips_sqr<S>(a, n, n0inv, S, t, out);
}

}  // namespace

void Montgomery::to_limbs(const BigNum& v, std::size_t s, std::uint64_t* out) {
  std::fill(out, out + s, 0u);
  for (std::size_t i = 0; i < v.limbs_.size(); ++i) {
    out[i / 2] |= static_cast<std::uint64_t>(v.limbs_[i]) << (32 * (i % 2));
  }
}

BigNum Montgomery::from_limbs(const std::uint64_t* v, std::size_t s) {
  BigNum out;
  out.limbs_.resize(s * 2, 0);
  for (std::size_t i = 0; i < s; ++i) {
    out.limbs_[2 * i] = static_cast<std::uint32_t>(v[i]);
    out.limbs_[2 * i + 1] = static_cast<std::uint32_t>(v[i] >> 32);
  }
  out.trim();
  return out;
}

Montgomery::Montgomery(const BigNum& modulus) : modulus_(modulus) {
  if (!modulus.is_odd() || !(modulus > BigNum{1})) {
    throw std::invalid_argument("Montgomery: modulus must be odd and > 1");
  }
  const std::size_t s = (modulus.limbs_.size() + 1) / 2;
  n_.resize(s);
  to_limbs(modulus, s, n_.data());

  // n0inv = -n^-1 mod 2^64 by Newton iteration: for odd x, x is its own
  // inverse mod 8, and each step doubles the number of correct bits
  // (3 -> 6 -> 12 -> 24 -> 48 -> 96 covers 64).
  std::uint64_t inv = n_[0];
  for (int i = 0; i < 5; ++i) inv *= 2u - n_[0] * inv;
  n0inv_ = ~inv + 1u;  // -inv mod 2^64

  // R^2 mod n where R = 2^(64s): one big division at setup time.
  rr_.resize(s);
  to_limbs((BigNum{1} << (128 * s)).mod(modulus), s, rr_.data());
}

void Montgomery::mul(const std::uint64_t* a, const std::uint64_t* b, std::uint64_t* out) const {
  const std::size_t s = n_.size();
  switch (s) {
    case 4: return mul_fixed<4>(a, b, n_.data(), n0inv_, out);
    case 8: return mul_fixed<8>(a, b, n_.data(), n0inv_, out);
    case 16: return mul_fixed<16>(a, b, n_.data(), n0inv_, out);
    default: {
      LimbBuffer<kStackLimbs + 2> t(s + 2);
      cios_mul<0>(a, b, n_.data(), n0inv_, s, t.data(), out);
    }
  }
}

void Montgomery::sqr(const std::uint64_t* a, std::uint64_t* out) const {
  const std::size_t s = n_.size();
  switch (s) {
    case 4: return sqr_fixed<4>(a, n_.data(), n0inv_, out);
    case 8: return sqr_fixed<8>(a, n_.data(), n0inv_, out);
    case 16: return sqr_fixed<16>(a, n_.data(), n0inv_, out);
    default: {
      LimbBuffer<2 * kStackLimbs + 1> t(2 * s + 1);
      fips_sqr<0>(a, n_.data(), n0inv_, s, t.data(), out);
    }
  }
}

void Montgomery::pow_mont(const BigNum& base, const BigNum& exponent, std::uint64_t* ws) const {
  const std::size_t s = n_.size();
  std::uint64_t* acc = ws;
  // Fixed 4-bit windows over a table of powers in Montgomery form; scan the
  // exponent from the most significant nibble down. The table is built only
  // up to the largest window value the exponent actually uses — a sparse
  // exponent like 65537 (nibbles 1,0,0,0,1) then costs one table entry
  // instead of fifteen.
  std::uint64_t* table = ws + 2 * s;
  const auto entry = [&](std::uint32_t k) { return table + (k - 1) * s; };  // base^k, k >= 1
  const std::vector<std::uint32_t>& e = exponent.limbs_;
  const auto window = [&](std::size_t w) { return (e[w / 8] >> (4 * (w % 8))) & 0xFu; };

  if (base < modulus_) {
    to_limbs(base, s, acc);
  } else {
    to_limbs(base.mod(modulus_), s, acc);
  }
  mul(acc, rr_.data(), entry(1));

  const std::size_t nwindows = (exponent.bit_length() + 3) / 4;
  std::uint32_t max_window = 1;
  for (std::size_t w = 0; w < nwindows; ++w) max_window = std::max(max_window, window(w));
  for (std::uint32_t k = 2; k <= max_window; ++k) mul(entry(k - 1), entry(1), entry(k));

  // The top window is nonzero, so the accumulator starts at its entry.
  const std::uint64_t* top = entry(window(nwindows - 1));
  std::copy(top, top + s, acc);
  for (std::size_t w = nwindows - 1; w-- > 0;) {
    for (int sq = 0; sq < 4; ++sq) sqr(acc, acc);
    if (const std::uint32_t k = window(w)) mul(acc, entry(k), acc);
  }
}

BigNum Montgomery::pow(const BigNum& base, const BigNum& exponent) const {
  if (exponent.is_zero()) return BigNum{1};  // modulus > 1, so 1 mod n = 1
  const std::size_t s = n_.size();
  LimbBuffer<workspace_limbs(kStackLimbs)> ws(workspace_limbs(s));
  std::uint64_t* acc = ws.data();
  pow_mont(base, exponent, acc);

  // Leave Montgomery form: acc * 1 * R^-1.
  std::uint64_t* unit = acc + s;
  std::fill(unit, unit + s, 0u);
  unit[0] = 1;
  mul(acc, unit, acc);
  return from_limbs(acc, s);
}

bool Montgomery::is_miller_rabin_witness(const BigNum& a, const BigNum& d, std::size_t s2) const {
  const std::size_t s = n_.size();
  LimbBuffer<workspace_limbs(kStackLimbs)> ws(workspace_limbs(s));
  std::uint64_t* x = ws.data();
  pow_mont(a, d, x);

  // 1 and n - 1 in Montgomery form, R mod n and n - (R mod n), in the
  // caller's slot and the now free window table.
  std::uint64_t* one = x + s;
  std::uint64_t* minus_one = x + 2 * s;
  std::fill(one, one + s, 0u);
  one[0] = 1;
  mul(one, rr_.data(), one);  // 1 * R^2 * R^-1
  sub_limbs(n_.data(), one, s, minus_one);
  const auto equal = [s](const std::uint64_t* u, const std::uint64_t* v) {
    return std::equal(u, u + s, v);
  };

  if (equal(x, one) || equal(x, minus_one)) return false;
  for (std::size_t i = 1; i < s2; ++i) {
    sqr(x, x);
    if (equal(x, minus_one)) return false;
  }
  return true;
}

std::uint32_t BigNum::mod_u32(std::uint32_t m) const {
  std::uint64_t rem = 0;
  for (std::size_t i = limbs_.size(); i-- > 0;) {
    rem = ((rem << 32) | limbs_[i]) % m;
  }
  return static_cast<std::uint32_t>(rem);
}

std::string BigNum::to_string_hex() const {
  if (is_zero()) return "0";
  return to_hex(to_bytes_be());
}

BigNum BigNum::random_below(Rng& rng, const BigNum& bound) {
  if (bound.is_zero()) throw std::invalid_argument("BigNum: random_below(0)");
  const std::size_t nbits = bound.bit_length();
  const std::size_t nbytes = (nbits + 7) / 8;
  // Mask the top byte to the bound's bit width so rejection is rare.
  const std::uint8_t top_mask =
      static_cast<std::uint8_t>((1u << (nbits % 8 == 0 ? 8 : nbits % 8)) - 1);
  for (;;) {
    Bytes bytes = rng.random_bytes(nbytes);
    bytes[0] &= top_mask;
    BigNum candidate = from_bytes_be(bytes);
    if (candidate < bound) return candidate;
  }
}

BigNum BigNum::random_odd(Rng& rng, std::size_t bits) {
  if (bits < 2) throw std::invalid_argument("BigNum: random_odd needs >= 2 bits");
  Bytes bytes = rng.random_bytes((bits + 7) / 8);
  // Force exact bit length and oddness.
  const std::size_t top_bit = (bits - 1) % 8;
  bytes[0] &= static_cast<std::uint8_t>((1u << (top_bit + 1)) - 1);
  bytes[0] |= static_cast<std::uint8_t>(1u << top_bit);
  bytes.back() |= 1;
  return from_bytes_be(bytes);
}

BigNum BigNum::gcd(BigNum a, BigNum b) {
  while (!b.is_zero()) {
    BigNum r = a.mod(b);
    a = b;
    b = r;
  }
  return a;
}

BigNum BigNum::modinv(const BigNum& a, const BigNum& m) {
  // Extended Euclid on non-negative values, tracking coefficients with signs.
  BigNum old_r = a.mod(m), r = m;
  BigNum old_s{1}, s{};
  bool old_s_neg = false, s_neg = false;
  while (!r.is_zero()) {
    const DivMod dm = old_r.divmod(r);
    const BigNum q = dm.quotient;
    old_r = r;
    r = dm.remainder;

    // new_s = old_s - q * s (with sign tracking)
    BigNum qs = q * s;
    BigNum new_s;
    bool new_s_neg;
    if (old_s_neg == s_neg) {
      if (old_s >= qs) {
        new_s = old_s - qs;
        new_s_neg = old_s_neg;
      } else {
        new_s = qs - old_s;
        new_s_neg = !old_s_neg;
      }
    } else {
      new_s = old_s + qs;
      new_s_neg = old_s_neg;
    }
    old_s = s;
    old_s_neg = s_neg;
    s = new_s;
    s_neg = new_s_neg;
  }
  if (!(old_r == BigNum{1})) return BigNum{};  // not invertible
  if (old_s_neg) return m - old_s.mod(m);
  return old_s.mod(m);
}

bool BigNum::is_probable_prime(const BigNum& n, Rng& rng, int rounds) {
  if (n < BigNum{2}) return false;
  for (std::uint32_t p : kSmallPrimes) {
    if (n == BigNum{p}) return true;
    if (n.mod_u32(p) == 0) return false;
  }
  if (!n.is_odd()) return n == BigNum{2};

  // n - 1 = d * 2^s
  BigNum d = n - BigNum{1};
  std::size_t s = 0;
  while (!d.is_odd()) {
    d = d >> 1;
    ++s;
  }

  const BigNum two{2};
  const BigNum n_minus_3 = n - BigNum{3};
  const Montgomery mont(n);
  for (int round = 0; round < rounds; ++round) {
    const BigNum a = random_below(rng, n_minus_3) + two;  // in [2, n-2]
    if (mont.is_miller_rabin_witness(a, d, s)) return false;
  }
  return true;
}

BigNum BigNum::generate_prime(Rng& rng, std::size_t bits) {
  for (;;) {
    BigNum candidate = random_odd(rng, bits);
    if (is_probable_prime(candidate, rng)) return candidate;
  }
}

}  // namespace cb::crypto
