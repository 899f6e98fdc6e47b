//! Performance-portable ocean kernels dispatched through the `ap3esm-pp`
//! hash registry — the LICOMK++ execution path on Sunway (§5.3): kernels
//! registered once under hashed names, launched by callback on whichever
//! execution space the configuration selects.

use ap3esm_pp::{ExecSpace, KernelArgs, KernelRegistry};

/// Kernel names registered by [`register_kernels`].
pub const K_AXPY: &str = "ocn_axpy";
pub const K_CORIOLIS_ROTATE: &str = "ocn_coriolis_rotate";
pub const K_EOS_DENSITY: &str = "ocn_eos_density";

/// Register the ocean's portable kernels. Returns the number registered.
pub fn register_kernels(reg: &KernelRegistry) -> usize {
    // y ← y + a·x (tendency accumulation).
    reg.register(K_AXPY, |space: &dyn ExecSpace, args: &mut KernelArgs| {
        let a = args.scalars[0];
        let n = args.n;
        let x = args.inputs[0];
        let y = &mut args.outputs[0];
        let shared = ap3esm_pp::SharedSlice::new(y);
        space.for_each(n, &|i| unsafe {
            let v = *shared.get(i) + a * x[i];
            shared.set(i, v);
        });
    });

    // Rotation-implicit Coriolis: (u, v) ← R(f·dt)·(u, v)/(1+(f·dt)²).
    reg.register(
        K_CORIOLIS_ROTATE,
        |space: &dyn ExecSpace, args: &mut KernelArgs| {
            let a = args.scalars[0]; // f·dt
            let n = args.n;
            let denom = 1.0 + a * a;
            let [u, v] = &mut args.outputs[..] else {
                panic!("coriolis kernel needs (u, v) outputs");
            };
            let su = ap3esm_pp::SharedSlice::new(u);
            let sv = ap3esm_pp::SharedSlice::new(v);
            space.for_each(n, &|i| unsafe {
                let (ui, vi) = (*su.get(i), *sv.get(i));
                su.set(i, (ui + a * vi) / denom);
                sv.set(i, (vi - a * ui) / denom);
            });
        },
    );

    // Linear EOS over a packed level: rho ← ρ(T, S).
    reg.register(
        K_EOS_DENSITY,
        |space: &dyn ExecSpace, args: &mut KernelArgs| {
            let n = args.n;
            let t = args.inputs[0];
            let s = args.inputs[1];
            let rho = &mut args.outputs[0];
            let out = ap3esm_pp::SharedSlice::new(rho);
            space.for_each(n, &|i| unsafe {
                out.set(i, crate::eos::density(t[i], s[i]));
            });
        },
    );
    3
}

#[cfg(test)]
mod tests {
    use super::*;
    use ap3esm_pp::{Serial, SimulatedCpe, Threads};

    #[test]
    fn kernels_register_and_run_on_all_backends() {
        let reg = KernelRegistry::new();
        assert_eq!(register_kernels(&reg), 3);
        let backends: Vec<Box<dyn ExecSpace>> = vec![
            Box::new(Serial),
            Box::new(Threads::new(3)),
            Box::new(SimulatedCpe::default()),
        ];
        for backend in &backends {
            let x = vec![1.0, 2.0, 3.0];
            let mut y = vec![10.0, 10.0, 10.0];
            let mut args = KernelArgs {
                n: 3,
                inputs: vec![&x],
                outputs: vec![&mut y],
                scalars: vec![0.5],
            };
            reg.launch_by_name(K_AXPY, backend.as_ref(), &mut args)
                .unwrap();
            assert_eq!(y, vec![10.5, 11.0, 11.5], "axpy on {}", backend.name());
        }
    }

    #[test]
    fn coriolis_kernel_preserves_speed() {
        let reg = KernelRegistry::new();
        register_kernels(&reg);
        let mut u: Vec<f64> = vec![1.0, 0.0, 3.0];
        let mut v: Vec<f64> = vec![0.0, 2.0, -4.0];
        let speed0: Vec<f64> = u
            .iter()
            .zip(&v)
            .map(|(a, b)| (a * a + b * b).sqrt())
            .collect();
        let mut args = KernelArgs {
            n: 3,
            inputs: vec![],
            outputs: vec![&mut u, &mut v],
            scalars: vec![0.3],
        };
        reg.launch_by_name(K_CORIOLIS_ROTATE, &Serial, &mut args)
            .unwrap();
        // Implicit rotation shrinks speed slightly (never grows it).
        for ((a, b), s0) in u.iter().zip(&v).zip(&speed0) {
            let s1 = (a * a + b * b).sqrt();
            assert!(s1 <= *s0 + 1e-12, "speed grew {s0} -> {s1}");
            assert!(s1 > 0.9 * s0, "over-damped {s0} -> {s1}");
        }
    }

    #[test]
    fn eos_kernel_matches_direct_call() {
        let reg = KernelRegistry::new();
        register_kernels(&reg);
        let t = vec![5.0, 15.0, 25.0];
        let s = vec![34.0, 35.0, 36.0];
        let mut rho = vec![0.0; 3];
        let mut args = KernelArgs {
            n: 3,
            inputs: vec![&t, &s],
            outputs: vec![&mut rho],
            scalars: vec![],
        };
        reg.launch_by_name(K_EOS_DENSITY, &Threads::new(2), &mut args)
            .unwrap();
        for i in 0..3 {
            assert_eq!(rho[i], crate::eos::density(t[i], s[i]));
        }
    }
}
