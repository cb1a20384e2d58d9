#include "nt/numtheory.hpp"

#include <cassert>
#include <cmath>
#include <stdexcept>

namespace sfly::nt {

u64 mulmod(u64 a, u64 b, u64 m) {
  return static_cast<u64>((__uint128_t)a * b % m);
}

u64 powmod(u64 a, u64 e, u64 m) {
  u64 r = 1 % m;
  a %= m;
  while (e) {
    if (e & 1) r = mulmod(r, a, m);
    a = mulmod(a, a, m);
    e >>= 1;
  }
  return r;
}

u64 invmod(u64 a, u64 m) {
  // Extended Euclid; a and m must be coprime.
  i64 t = 0, newt = 1;
  i64 r = static_cast<i64>(m), newr = static_cast<i64>(a % m);
  while (newr != 0) {
    i64 q = r / newr;
    t -= q * newt;
    std::swap(t, newt);
    r -= q * newr;
    std::swap(r, newr);
  }
  if (r != 1) throw std::invalid_argument("invmod: not invertible");
  if (t < 0) t += static_cast<i64>(m);
  return static_cast<u64>(t);
}

bool is_prime(u64 n) {
  if (n < 2) return false;
  for (u64 p : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull, 23ull,
                29ull, 31ull, 37ull}) {
    if (n % p == 0) return n == p;
  }
  u64 d = n - 1;
  int s = 0;
  while ((d & 1) == 0) d >>= 1, ++s;
  // Deterministic witness set for 64-bit integers.
  for (u64 a : {2ull, 3ull, 5ull, 7ull, 11ull, 13ull, 17ull, 19ull, 23ull,
                29ull, 31ull, 37ull}) {
    u64 x = powmod(a, d, n);
    if (x == 1 || x == n - 1) continue;
    bool composite = true;
    for (int i = 1; i < s; ++i) {
      x = mulmod(x, x, n);
      if (x == n - 1) {
        composite = false;
        break;
      }
    }
    if (composite) return false;
  }
  return true;
}

std::vector<u64> primes_in(u64 lo, u64 hi) {
  std::vector<u64> out;
  if (hi < 2) return out;
  std::vector<bool> sieve(hi + 1, true);
  sieve[0] = false;
  if (hi >= 1) sieve[1] = false;
  for (u64 i = 2; i * i <= hi; ++i)
    if (sieve[i])
      for (u64 j = i * i; j <= hi; j += i) sieve[j] = false;
  for (u64 i = std::max<u64>(lo, 2); i <= hi; ++i)
    if (sieve[i]) out.push_back(i);
  return out;
}

int legendre(i64 a, u64 p) {
  assert(p > 2 && is_prime(p));
  i64 m = a % static_cast<i64>(p);
  if (m < 0) m += static_cast<i64>(p);
  if (m == 0) return 0;
  u64 r = powmod(static_cast<u64>(m), (p - 1) / 2, p);
  return r == 1 ? 1 : -1;
}

std::optional<u64> sqrt_mod(u64 a, u64 p) {
  a %= p;
  if (a == 0) return 0;
  if (p == 2) return a;
  if (legendre(static_cast<i64>(a), p) != 1) return std::nullopt;
  if (p % 4 == 3) return powmod(a, (p + 1) / 4, p);
  // Tonelli–Shanks.
  u64 q = p - 1;
  unsigned s = 0;
  while ((q & 1) == 0) q >>= 1, ++s;
  u64 z = 2;
  while (legendre(static_cast<i64>(z), p) != -1) ++z;
  u64 m = s;
  u64 c = powmod(z, q, p);
  u64 t = powmod(a, q, p);
  u64 r = powmod(a, (q + 1) / 2, p);
  while (t != 1) {
    u64 i = 0, tt = t;
    while (tt != 1) {
      tt = mulmod(tt, tt, p);
      ++i;
      if (i == m) return std::nullopt;  // unreachable for valid input
    }
    u64 b = powmod(c, 1ull << (m - i - 1), p);
    m = i;
    c = mulmod(b, b, p);
    t = mulmod(t, c, p);
    r = mulmod(r, b, p);
  }
  return r;
}

std::pair<u64, u64> solve_x2_y2_plus1(u64 q) {
  // x^2 + y^2 = -1 (mod q) always has a solution for odd prime q.
  for (u64 x = 0; x < q; ++x) {
    u64 rhs = (q - 1 + q - mulmod(x, x, q)) % q;  // -1 - x^2 mod q
    if (auto y = sqrt_mod(rhs, q)) return {x, *y};
  }
  throw std::logic_error("solve_x2_y2_plus1: no solution (q not prime?)");
}

std::vector<FourSquare> lps_four_squares(u64 p) {
  if (!is_prime(p) || p == 2)
    throw std::invalid_argument("lps_four_squares: p must be an odd prime");
  const i64 ip = static_cast<i64>(p);
  const i64 r = static_cast<i64>(std::sqrt(static_cast<double>(p))) + 1;
  std::vector<FourSquare> out;
  for (i64 a0 = 0; a0 <= r; ++a0) {
    if (a0 * a0 > ip) break;
    // Normalization on a0 per Definition 3.
    if (p % 4 == 1) {
      if (a0 == 0 || a0 % 2 == 0) continue;
    } else {
      if (a0 % 2 != 0) continue;  // a0 even (possibly 0)
    }
    for (i64 a1 = -r; a1 <= r; ++a1) {
      if (p % 4 == 3 && a0 == 0 && a1 <= 0) continue;
      i64 s2 = ip - a0 * a0 - a1 * a1;
      if (s2 < 0) continue;
      for (i64 a2 = -r; a2 <= r; ++a2) {
        i64 s3 = s2 - a2 * a2;
        if (s3 < 0) continue;
        i64 a3 = static_cast<i64>(std::llround(std::sqrt((double)s3)));
        for (i64 c : {a3, -a3}) {
          if (c * c != s3) continue;
          out.push_back({a0, a1, a2, c});
          if (c == 0) break;  // avoid duplicate (a3 = -0)
        }
      }
    }
  }
  if (out.size() != p + 1)
    throw std::logic_error("lps_four_squares: expected p+1 solutions");
  return out;
}

std::optional<std::pair<u64, unsigned>> prime_power(u64 n) {
  if (n < 2) return std::nullopt;
  for (u64 p = 2; p <= n / p; ++p) {  // p * p wraps once p reaches 2^32
    if (n % p) continue;
    u64 m = n;
    unsigned k = 0;
    while (m % p == 0) m /= p, ++k;
    if (m == 1 && is_prime(p)) return std::make_pair(p, k);
    return std::nullopt;
  }
  return std::make_pair(n, 1u);  // n itself prime
}

}  // namespace sfly::nt
