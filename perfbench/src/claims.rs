//! The ten Fig. 9 geomean claims that `fig09_speedup_energy` prints next
//! to its own table, and the mean relative error of a reproduction
//! against them (`paper_error_pct`).

/// Method columns of the grid, in the order `fig09_speedup_energy`
/// runs them; column 0 (the systolic array, "SA") is the baseline.
pub const METHODS: [&str; 6] = ["SA", "GPU", "Adaptiv", "CMC", "GPU+FF", "Ours"];

/// Index of Focus ("Ours") in [`METHODS`].
pub const OURS: usize = 5;

/// What a claim compares.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Quantity {
    /// Runtime: how many times faster Ours is than the other method.
    Speedup,
    /// Energy: how many times less energy Ours uses.
    Energy,
}

/// One paper claim: Ours over `method` on `quantity`, as a geomean
/// over the nine (model × video dataset) cells.
#[derive(Clone, Copy, Debug)]
pub struct Claim {
    /// The compared quantity.
    pub quantity: Quantity,
    /// Index into [`METHODS`] of the method Ours is compared against.
    pub method: usize,
    /// The paper's value.
    pub paper: f64,
}

const fn claim(quantity: Quantity, method: usize, paper: f64) -> Claim {
    Claim {
        quantity,
        method,
        paper,
    }
}

/// The claims, as the binary prints them: "Ours over each" speedups
/// (GPU 7.90x, Adaptiv 2.60x, CMC 2.35x, GPU+FF 2.37x, SA 4.47x) and
/// the energy savings (4.67x vs SA, 2.98x vs Adaptiv, 3.29x vs CMC,
/// 17.09x vs GPU, 5.13x vs GPU+FF).
pub const CLAIMS: [Claim; 10] = [
    claim(Quantity::Speedup, 1, 7.90),
    claim(Quantity::Speedup, 2, 2.60),
    claim(Quantity::Speedup, 3, 2.35),
    claim(Quantity::Speedup, 4, 2.37),
    claim(Quantity::Speedup, 0, 4.47),
    claim(Quantity::Energy, 0, 4.67),
    claim(Quantity::Energy, 2, 2.98),
    claim(Quantity::Energy, 3, 3.29),
    claim(Quantity::Energy, 1, 17.09),
    claim(Quantity::Energy, 4, 5.13),
];

/// Runtime and energy of one method on one grid cell.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Cost {
    /// Modelled runtime in seconds.
    pub seconds: f64,
    /// Modelled energy in joules.
    pub energy_j: f64,
}

fn geomean(values: &[f64]) -> f64 {
    focus_tensor::ops::geometric_mean(values)
}

/// The reproduced value of `claim` over `cells`, each a row of costs in
/// [`METHODS`] order. Like the binary, every method is first normalised
/// to SA per cell and geomeaned over cells; Ours over X is then the
/// ratio of the two geomeans.
pub fn reproduced(claim: &Claim, cells: &[[Cost; 6]]) -> f64 {
    let over_sa = |method: usize| -> f64 {
        let ratios: Vec<f64> = cells
            .iter()
            .map(|row| match claim.quantity {
                Quantity::Speedup => row[0].seconds / row[method].seconds,
                Quantity::Energy => row[0].energy_j / row[method].energy_j,
            })
            .collect();
        geomean(&ratios)
    };
    over_sa(OURS) / over_sa(claim.method)
}

/// Mean |reproduced / paper − 1| over [`CLAIMS`], in percent.
pub fn paper_error_pct(cells: &[[Cost; 6]]) -> f64 {
    let total: f64 = CLAIMS
        .iter()
        .map(|c| (reproduced(c, cells) / c.paper - 1.0).abs())
        .sum();
    100.0 * total / CLAIMS.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One cell whose every ratio equals the paper's claims: SA costs 1,
    /// and each method's cost is chosen so Ours over it is exact.
    fn paper_cell() -> [Cost; 6] {
        let ours_speed = 4.47; // Ours over SA
        let ours_energy = 4.67;
        let speed_over = [4.47, 7.90, 2.60, 2.35, 2.37]; // SA, GPU, Adaptiv, CMC, GPU+FF
        let energy_over = [4.67, 17.09, 2.98, 3.29, 5.13];
        let mut row = [Cost {
            seconds: 1.0,
            energy_j: 1.0,
        }; 6];
        for m in 1..5 {
            // method speedup over SA = ours_speed / (Ours over method)
            row[m].seconds = speed_over[m] / ours_speed;
            row[m].energy_j = energy_over[m] / ours_energy;
        }
        row[OURS] = Cost {
            seconds: 1.0 / ours_speed,
            energy_j: 1.0 / ours_energy,
        };
        row
    }

    #[test]
    fn the_table_holds_five_speedups_and_five_energy_ratios() {
        let count = |q| CLAIMS.iter().filter(|c| c.quantity == q).count();
        assert_eq!(count(Quantity::Speedup), 5);
        assert_eq!(count(Quantity::Energy), 5);
        for q in [Quantity::Speedup, Quantity::Energy] {
            let mut methods: Vec<usize> = CLAIMS
                .iter()
                .filter(|c| c.quantity == q)
                .map(|c| c.method)
                .collect();
            methods.sort_unstable();
            assert_eq!(methods, [0, 1, 2, 3, 4], "every other method once");
        }
    }

    #[test]
    fn a_grid_matching_the_paper_has_zero_error() {
        let cells = vec![paper_cell(); 9];
        for c in &CLAIMS {
            assert!(
                (reproduced(c, &cells) / c.paper - 1.0).abs() < 1e-12,
                "{c:?}"
            );
        }
        assert!(paper_error_pct(&cells) < 1e-9);
    }

    #[test]
    fn error_is_the_mean_relative_deviation() {
        // Ours 10% slower on every cell: the five speedup claims each
        // read 1/1.1 of the paper, the energy claims stay exact.
        let mut cell = paper_cell();
        cell[OURS].seconds *= 1.1;
        let cells = vec![cell; 9];
        let expected = 100.0 * 5.0 * (1.0 - 1.0 / 1.1) / 10.0;
        assert!((paper_error_pct(&cells) - expected).abs() < 1e-9);
    }
}
