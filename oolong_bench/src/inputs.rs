//! Seeded workload inputs. The harness generates every input itself; the
//! program under test only ever sees the generated source text.

use oolong_corpus::{generate_unannotated_source, paper, UnannotatedConfig};
use oolong_engine::BatchUnit;

/// Engine workers and client connections: the two cores of the machine
/// the benchmark was sized on.
pub const WORKERS: usize = 2;

/// Units per `scaled_cold` pass (and resident units of `edit_loop`).
pub const SCALED_UNITS: u64 = 4;

/// Procedures, each with one implementation, per scaled unit.
pub const SCALED_PROCS: usize = 200;

/// A small deterministic generator (SplitMix64), so seeds map to the same
/// inputs on every machine and build.
#[derive(Debug, Clone)]
pub struct SplitMix(u64);

impl SplitMix {
    pub fn new(seed: u64) -> SplitMix {
        SplitMix(seed ^ 0x6a09_e667_f3bc_c909)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The twelve paper-corpus programs, in corpus order (27 obligations).
pub fn paper_units() -> Vec<BatchUnit> {
    paper::all()
        .iter()
        .map(|p| BatchUnit {
            name: p.name.to_string(),
            source: p.source.to_string(),
        })
        .collect()
}

/// Wide scopes and deep call DAGs: 8 groups, 24 fields, 200 procedures,
/// with the `in` clauses kept.
pub fn scaled_config() -> UnannotatedConfig {
    UnannotatedConfig {
        groups: 8,
        fields: 24,
        procs: SCALED_PROCS,
        keep_includes: true,
    }
}

/// The fully annotated scaled units of a seed. Seeds map to disjoint
/// generator seeds, so two benchmark seeds never share a unit.
pub fn scaled_units(seed: u64) -> Vec<BatchUnit> {
    let cfg = scaled_config();
    (0..SCALED_UNITS)
        .map(|i| {
            let generated = generate_unannotated_source(seed.wrapping_mul(SCALED_UNITS) + i, &cfg);
            BatchUnit {
                name: generated.name,
                source: generated.annotated,
            }
        })
        .collect()
}

/// `source` with `assume k = k ;` inserted as the first command of the
/// implementation of procedure `p<proc>`. The assumption is true, so the
/// verdict cannot change, but it enters the VC: the edited obligation
/// gets a fresh fingerprint for every distinct `k`, and no other
/// obligation of the unit changes.
pub fn edit_source(source: &str, proc: usize, k: u64) -> String {
    let header = format!("\nimpl p{proc}(");
    let at = source
        .find(&header)
        .expect("generated units implement every procedure");
    let body = at
        + source[at..]
            .find("{\n")
            .expect("impl bodies open with a brace")
        + 2;
    format!(
        "{}  assume {k} = {k} ;\n{}",
        &source[..body],
        &source[body..]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn edits_land_at_the_start_of_one_body() {
        let source = "proc p0(t0)\nimpl p0(t0) {\n  t0.f := 1\n}\nproc p1(t0)\nimpl p1(t0) {\n  t0.f := 2\n}\n";
        let edited = edit_source(source, 1, 7);
        assert_eq!(
            edited,
            "proc p0(t0)\nimpl p0(t0) {\n  t0.f := 1\n}\nproc p1(t0)\nimpl p1(t0) {\n  assume 7 = 7 ;\n  t0.f := 2\n}\n"
        );
    }

    #[test]
    fn seeds_give_the_same_inputs() {
        assert_eq!(scaled_units(3)[0].source, scaled_units(3)[0].source);
        assert_ne!(scaled_units(3)[0].source, scaled_units(4)[0].source);
        let (mut a, mut b) = (SplitMix::new(9), SplitMix::new(9));
        assert_eq!(a.next_u64(), b.next_u64());
    }
}
