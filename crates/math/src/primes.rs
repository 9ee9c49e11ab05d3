//! NTT-friendly prime generation and primitive roots.
//!
//! A length-`2N` negacyclic NTT over `Z_q` needs a primitive `2N`-th root
//! of unity, which exists exactly when `q ≡ 1 (mod 2N)`. This module finds
//! such primes deterministically (Miller–Rabin with the u64-complete base
//! set), factors `q − 1` with Pollard rho to locate generators, and
//! extracts roots of any power-of-two order.

use crate::modular::Modulus;
use crate::util::gcd;
use crate::MathError;

/// Deterministic Miller–Rabin primality test, exact for all `u64`.
///
/// Uses the 12-base witness set proven complete for 64-bit integers.
///
/// # Example
///
/// ```
/// assert!(uvpu_math::primes::is_prime(0x0fff_ffff_fffc_0001));
/// assert!(!uvpu_math::primes::is_prime(0x0fff_ffff_ffd8_0001));
/// ```
#[must_use]
pub fn is_prime(n: u64) -> bool {
    if n < 2 {
        return false;
    }
    for p in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        if n == p {
            return true;
        }
        if n.is_multiple_of(p) {
            return false;
        }
    }
    let d = n - 1;
    let s = d.trailing_zeros();
    let d = d >> s;
    'witness: for a in [2u64, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37] {
        let mut x = pow_mod(a % n, d, n);
        if x == 1 || x == n - 1 {
            continue;
        }
        for _ in 0..s - 1 {
            x = mul_mod(x, x, n);
            if x == n - 1 {
                continue 'witness;
            }
        }
        return false;
    }
    true
}

#[inline]
fn mul_mod(a: u64, b: u64, m: u64) -> u64 {
    (u128::from(a) * u128::from(b) % u128::from(m)) as u64
}

fn pow_mod(mut base: u64, mut exp: u64, m: u64) -> u64 {
    let mut acc = 1u64 % m;
    base %= m;
    while exp > 0 {
        if exp & 1 == 1 {
            acc = mul_mod(acc, base, m);
        }
        base = mul_mod(base, base, m);
        exp >>= 1;
    }
    acc
}

/// Finds the largest prime with exactly `bits` bits satisfying
/// `q ≡ 1 (mod 2·ntt_len)`.
///
/// # Errors
///
/// Returns [`MathError::PrimeNotFound`] if no such prime exists below
/// `2^bits`, and [`MathError::LengthNotPowerOfTwo`] if `ntt_len` is not a
/// power of two.
///
/// # Example
///
/// ```
/// # fn main() -> Result<(), uvpu_math::MathError> {
/// let q = uvpu_math::primes::ntt_prime(40, 1 << 12)?;
/// assert!(uvpu_math::primes::is_prime(q));
/// assert_eq!(q % (2 << 12), 1);
/// # Ok(())
/// # }
/// ```
pub fn ntt_prime(bits: u32, ntt_len: usize) -> Result<u64, MathError> {
    if !ntt_len.is_power_of_two() {
        return Err(MathError::LengthNotPowerOfTwo { length: ntt_len });
    }
    assert!(
        (3..=61).contains(&bits),
        "prime width must be in [3, 61] bits"
    );
    let step = 2 * ntt_len as u64;
    let hi = (1u64 << bits) - 1;
    let lo = 1u64 << (bits - 1);
    let mut candidate = hi - (hi - 1) % step; // largest value ≡ 1 mod step, ≤ hi
    while candidate > lo {
        if is_prime(candidate) {
            return Ok(candidate);
        }
        candidate -= step;
    }
    Err(MathError::PrimeNotFound {
        bits,
        ntt_len: ntt_len as u64,
    })
}

/// Generates `count` **distinct** primes of the given bit width, all
/// congruent to `1 mod 2·ntt_len`, in descending order.
///
/// This is the modulus-chain generator used by the RNS-CKKS scheme.
///
/// # Errors
///
/// Returns [`MathError::PrimeNotFound`] if fewer than `count` primes exist.
pub fn ntt_prime_chain(bits: u32, ntt_len: usize, count: usize) -> Result<Vec<u64>, MathError> {
    if !ntt_len.is_power_of_two() {
        return Err(MathError::LengthNotPowerOfTwo { length: ntt_len });
    }
    assert!(
        (3..=61).contains(&bits),
        "prime width must be in [3, 61] bits"
    );
    let step = 2 * ntt_len as u64;
    let hi = (1u64 << bits) - 1;
    let lo = 1u64 << (bits - 1);
    let mut out = Vec::with_capacity(count);
    let mut candidate = hi - (hi - 1) % step;
    while out.len() < count && candidate > lo {
        if is_prime(candidate) {
            out.push(candidate);
        }
        candidate -= step;
    }
    if out.len() < count {
        return Err(MathError::PrimeNotFound {
            bits,
            ntt_len: ntt_len as u64,
        });
    }
    Ok(out)
}

/// Pollard-rho integer factorization returning the prime factorization of
/// `n` as sorted `(prime, exponent)` pairs.
///
/// # Example
///
/// ```
/// assert_eq!(uvpu_math::primes::factorize(360), vec![(2, 3), (3, 2), (5, 1)]);
/// ```
#[must_use]
pub fn factorize(mut n: u64) -> Vec<(u64, u32)> {
    let mut factors = Vec::new();
    if n < 2 {
        return factors;
    }
    for p in [2u64, 3, 5] {
        let mut e = 0;
        while n.is_multiple_of(p) {
            n /= p;
            e += 1;
        }
        if e > 0 {
            factors.push((p, e));
        }
    }
    let mut stack = vec![n];
    let mut primes = Vec::new();
    while let Some(m) = stack.pop() {
        if m == 1 {
            continue;
        }
        if is_prime(m) {
            primes.push(m);
            continue;
        }
        let d = pollard_rho(m);
        stack.push(d);
        stack.push(m / d);
    }
    primes.sort_unstable();
    let mut i = 0;
    while i < primes.len() {
        let p = primes[i];
        let mut e = 0;
        while i < primes.len() && primes[i] == p {
            e += 1;
            i += 1;
        }
        factors.push((p, e));
    }
    factors.sort_unstable();
    factors
}

/// Finds a non-trivial factor of composite odd `n > 1` (Brent's variant).
fn pollard_rho(n: u64) -> u64 {
    debug_assert!(n > 1 && !is_prime(n));
    if n.is_multiple_of(2) {
        return 2;
    }
    let mut c = 1u64;
    loop {
        let f = |x: u64| (mul_mod(x, x, n) + c) % n;
        let (mut x, mut y, mut d) = (2u64, 2u64, 1u64);
        while d == 1 {
            x = f(x);
            y = f(f(y));
            d = gcd(x.abs_diff(y), n);
        }
        if d != n {
            return d;
        }
        c += 1;
    }
}

/// Finds a generator of the multiplicative group `Z_q^*` for prime `q`.
///
/// # Errors
///
/// Returns [`MathError::NoRootOfUnity`] if `q` is not prime (no generator
/// search is meaningful then).
pub fn primitive_root(q: &Modulus) -> Result<u64, MathError> {
    let value = q.value();
    if !is_prime(value) {
        return Err(MathError::NoRootOfUnity {
            modulus: value,
            order: value - 1,
        });
    }
    let phi = value - 1;
    let factors = factorize(phi);
    'candidate: for g in 2..value {
        for &(p, _) in &factors {
            if q.pow(g, phi / p) == 1 {
                continue 'candidate;
            }
        }
        return Ok(g);
    }
    unreachable!("every prime field has a generator")
}

/// Returns a primitive `order`-th root of unity modulo prime `q`.
///
/// # Errors
///
/// Returns [`MathError::NoRootOfUnity`] when `order ∤ q − 1` or `q` is not
/// prime.
///
/// # Example
///
/// ```
/// use uvpu_math::modular::Modulus;
/// # fn main() -> Result<(), uvpu_math::MathError> {
/// let q = Modulus::new(97)?;
/// let w = uvpu_math::primes::root_of_unity(&q, 8)?;
/// assert_eq!(q.pow(w, 8), 1);
/// assert_ne!(q.pow(w, 4), 1);
/// # Ok(())
/// # }
/// ```
pub fn root_of_unity(q: &Modulus, order: u64) -> Result<u64, MathError> {
    let phi = q.value() - 1;
    if order == 0 || !phi.is_multiple_of(order) {
        return Err(MathError::NoRootOfUnity {
            modulus: q.value(),
            order,
        });
    }
    let g = primitive_root(q)?;
    let root = q.pow(g, phi / order);
    debug_assert_eq!(q.pow(root, order), 1);
    Ok(root)
}

/// Returns the *minimal* primitive `order`-th root of unity, making table
/// generation deterministic across runs.
///
/// # Errors
///
/// Same as [`root_of_unity`].
pub fn min_root_of_unity(q: &Modulus, order: u64) -> Result<u64, MathError> {
    let root = root_of_unity(q, order)?;
    // All primitive order-th roots are root^k for k co-prime with order;
    // scan for the smallest. `order` is small (≤ 2^21 in practice). The
    // value test comes first — it rarely passes, so the co-primality
    // test (a parity check when `order` is a power of two) rarely runs.
    let pow2 = order.is_power_of_two();
    let mut best = root;
    let mut pow = 1u64;
    for k in 1..order {
        pow = q.mul(pow, root);
        if pow < best && (if pow2 { k & 1 == 1 } else { gcd(k, order) == 1 }) {
            best = pow;
        }
    }
    Ok(best)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn is_prime_small_exhaustive() {
        let sieve_limit = 2000usize;
        let mut sieve = vec![true; sieve_limit];
        sieve[0] = false;
        sieve[1] = false;
        for i in 2..sieve_limit {
            if sieve[i] {
                for j in (i * i..sieve_limit).step_by(i) {
                    sieve[j] = false;
                }
            }
        }
        for (n, &composite_free) in sieve.iter().enumerate().take(sieve_limit) {
            assert_eq!(is_prime(n as u64), composite_free, "n = {n}");
        }
    }

    #[test]
    fn is_prime_known_large_values() {
        assert!(is_prime((1 << 61) - 1)); // Mersenne prime M61
        assert!(!is_prime(u64::MAX)); // 3 · 5 · 17 · ...
        assert!(is_prime(0xffff_ffff_0000_0001)); // Goldilocks prime
        assert!(!is_prime(3_215_031_751)); // strong pseudoprime to bases 2,3,5,7
    }

    #[test]
    fn ntt_prime_has_required_congruence() {
        for log_n in [10usize, 12, 14, 16] {
            let n = 1usize << log_n;
            let q = ntt_prime(50, n).unwrap();
            assert!(is_prime(q));
            assert_eq!(q % (2 * n as u64), 1);
            assert_eq!(64 - q.leading_zeros(), 50);
        }
    }

    #[test]
    fn ntt_prime_chain_distinct_descending() {
        let chain = ntt_prime_chain(45, 1 << 12, 8).unwrap();
        assert_eq!(chain.len(), 8);
        for w in chain.windows(2) {
            assert!(w[0] > w[1]);
        }
        for &q in &chain {
            assert!(is_prime(q));
            assert_eq!(q % (2 << 12), 1);
        }
    }

    #[test]
    fn ntt_prime_rejects_non_power_of_two() {
        assert!(matches!(
            ntt_prime(40, 1000),
            Err(MathError::LengthNotPowerOfTwo { length: 1000 })
        ));
    }

    #[test]
    fn factorize_round_trips() {
        for n in [1u64, 2, 12, 97, 360, 1 << 20, 600_851_475_143, 0xdead_beef] {
            let f = factorize(n);
            let product: u64 = f.iter().map(|&(p, e)| p.pow(e)).product::<u64>().max(1);
            if n >= 1 {
                assert_eq!(product, n.max(1), "n = {n}");
            }
            for &(p, _) in &f {
                assert!(is_prime(p));
            }
        }
    }

    #[test]
    fn primitive_root_generates_group() {
        for q in [17u64, 97, 65537, 7681, 12289] {
            let m = Modulus::new(q).unwrap();
            let g = primitive_root(&m).unwrap();
            // g^{(q-1)/p} ≠ 1 for every prime p | q-1.
            for (p, _) in factorize(q - 1) {
                assert_ne!(m.pow(g, (q - 1) / p), 1);
            }
            assert_eq!(m.pow(g, q - 1), 1);
        }
    }

    #[test]
    fn root_of_unity_order_is_exact() {
        let q = Modulus::new(7681).unwrap(); // 7681 = 512·15 + 1
        let w = root_of_unity(&q, 512).unwrap();
        assert_eq!(q.pow(w, 512), 1);
        assert_ne!(q.pow(w, 256), 1);
        assert!(root_of_unity(&q, 1024).is_err());
    }

    #[test]
    fn min_root_is_primitive_and_minimal() {
        let q = Modulus::new(97).unwrap();
        let w = min_root_of_unity(&q, 8).unwrap();
        assert_eq!(q.pow(w, 8), 1);
        assert_ne!(q.pow(w, 4), 1);
        for c in 2..w {
            let ok = q.pow(c, 8) == 1 && q.pow(c, 4) != 1 && q.pow(c, 2) != 1 && c != 1;
            assert!(!ok, "found smaller primitive root {c}");
        }
    }

    #[test]
    fn min_roots_are_pinned() {
        // Every NTT table, VPU plan and digest hangs off the chosen 2n-th
        // root: (log2 n, prime, root) for the benchmark's 50-bit simulator
        // primes at n = 2^10 … 2^16, then for its CKKS chain (40-bit) and
        // special (58-bit) primes at n = 2^13 and 2^15.
        let pinned: [(u32, u64, u64); 17] = [
            (10, 1125899906826241, 816736452416),
            (11, 1125899906826241, 1080667890455),
            (12, 1125899906826241, 46909545429),
            (13, 1125899906826241, 11286399139),
            (14, 1125899904679937, 184459094098),
            (15, 1125899904679937, 26113207984),
            (16, 1125899903827969, 938640682),
            (13, 1099511480321, 30370987),
            (13, 1099510890497, 5405730),
            (13, 1099510824961, 38269060),
            (13, 1099510054913, 27512678),
            (13, 1099510005761, 206358744),
            (13, 288230376150876161, 31566079753753),
            (15, 1099510054913, 121567553),
            (15, 1099507695617, 16784287),
            (15, 1099506515969, 6793587),
            (15, 288230376147582977, 33474449150541),
        ];
        for (log_n, p, root) in pinned {
            let q = Modulus::new(p).unwrap();
            assert_eq!(min_root_of_unity(&q, 2 << log_n).unwrap(), root, "q={p}");
        }
        // The pinned primes are the ones the parameter generators pick.
        let primes = |rows: &[(u32, u64, u64)]| rows.iter().map(|r| r.1).collect::<Vec<_>>();
        for (i, log_n) in (10..=16).enumerate() {
            assert_eq!(ntt_prime(50, 1 << log_n).unwrap(), pinned[i].1);
        }
        assert_eq!(
            ntt_prime_chain(40, 1 << 13, 5).unwrap(),
            primes(&pinned[7..12])
        );
        assert_eq!(ntt_prime(58, 1 << 13).unwrap(), pinned[12].1);
        assert_eq!(
            ntt_prime_chain(40, 1 << 15, 3).unwrap(),
            primes(&pinned[13..16])
        );
        assert_eq!(ntt_prime(58, 1 << 15).unwrap(), pinned[16].1);
        // Orders that are not powers of two keep the generic gcd path.
        let q = Modulus::new(97).unwrap();
        for (order, root) in [(3u64, 35u64), (6, 36), (12, 6), (24, 4), (48, 2), (96, 5)] {
            assert_eq!(min_root_of_unity(&q, order).unwrap(), root, "order {order}");
        }
    }
}
