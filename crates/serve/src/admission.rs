//! Admission control: per-tenant token buckets.
//!
//! Each tenant gets a bucket of `burst` tokens refilling at `rate` tokens
//! per second; a request costs one token. Buckets are created lazily on
//! first sight of a tenant with the default limits, and can be overridden
//! per tenant (e.g. a free tier vs an operational consumer).
//!
//! Queue-depth backpressure is separate (the bounded queue in
//! [`crate::batcher`]); this module only answers "may this tenant submit
//! right now".

use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

use parking_lot::Mutex;

/// A classic token bucket. `rate == 0` means "never refills": after the
/// initial burst the bucket rejects forever, which tests use to get
/// deterministic rate-limit behaviour.
pub struct TokenBucket {
    burst: f64,
    rate: f64,
    state: Mutex<BucketState>,
}

struct BucketState {
    tokens: f64,
    last: Instant,
}

impl TokenBucket {
    pub fn new(rate: f64, burst: f64) -> Self {
        TokenBucket {
            burst,
            rate,
            state: Mutex::new(BucketState {
                tokens: burst,
                last: Instant::now(),
            }),
        }
    }

    /// Try to take one token. Refills lazily from elapsed wall time.
    pub fn try_acquire(&self) -> bool {
        let mut st = self.state.lock();
        let now = Instant::now();
        let dt = now.duration_since(st.last).as_secs_f64();
        st.last = now;
        st.tokens = (st.tokens + dt * self.rate).min(self.burst);
        if st.tokens >= 1.0 {
            st.tokens -= 1.0;
            true
        } else {
            false
        }
    }

    /// Tokens currently available (for introspection/metrics).
    pub fn available(&self) -> f64 {
        let mut st = self.state.lock();
        let now = Instant::now();
        let dt = now.duration_since(st.last).as_secs_f64();
        st.last = now;
        st.tokens = (st.tokens + dt * self.rate).min(self.burst);
        st.tokens
    }
}

/// Per-tenant admission controller.
pub struct Admission {
    default_rate: f64,
    default_burst: f64,
    buckets: Mutex<HashMap<String, Arc<TokenBucket>>>,
}

impl Admission {
    /// Controller whose unseen tenants get (`rate`, `burst`).
    pub fn new(rate: f64, burst: f64) -> Self {
        Admission {
            default_rate: rate,
            default_burst: burst,
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// Override one tenant's limits (replaces any existing bucket).
    pub fn set_tenant_limit(&self, tenant: &str, rate: f64, burst: f64) {
        self.buckets
            .lock()
            .insert(tenant.to_string(), Arc::new(TokenBucket::new(rate, burst)));
    }

    /// May `tenant` submit one request right now?
    pub fn admit(&self, tenant: &str) -> bool {
        let bucket = {
            let mut buckets = self.buckets.lock();
            // Look up before inserting: a known tenant costs no key allocation.
            let known = buckets.get(tenant).cloned();
            known.unwrap_or_else(|| {
                Arc::clone(buckets.entry(tenant.to_string()).or_insert_with(|| {
                    Arc::new(TokenBucket::new(self.default_rate, self.default_burst))
                }))
            })
        };
        bucket.try_acquire()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_enforces_burst_then_rejects_without_refill() {
        let b = TokenBucket::new(0.0, 3.0);
        assert!(b.try_acquire());
        assert!(b.try_acquire());
        assert!(b.try_acquire());
        assert!(!b.try_acquire(), "burst exhausted, rate 0 must reject");
        assert!(b.available() < 1.0);
    }

    #[test]
    fn bucket_refills_over_time() {
        let b = TokenBucket::new(1000.0, 2.0);
        assert!(b.try_acquire());
        assert!(b.try_acquire());
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert!(b.try_acquire(), "1000/s refill must restore a token in 5 ms");
    }

    #[test]
    fn tenants_are_isolated() {
        let adm = Admission::new(0.0, 1.0);
        assert!(adm.admit("a"));
        assert!(!adm.admit("a"), "tenant a exhausted");
        assert!(adm.admit("b"), "tenant b has its own bucket");
        adm.set_tenant_limit("c", 0.0, 2.0);
        assert!(adm.admit("c"));
        assert!(adm.admit("c"));
        assert!(!adm.admit("c"));
    }
}
