//! One function per table/figure of the paper's evaluation.
//!
//! See `DESIGN.md` (experiment index) for the mapping between these
//! functions, the paper's figures, and the modules that implement each
//! piece. All functions are deterministic for a given [`Scale`].

use crate::scale::Scale;
use spinamm_circuit::units::{Amps, Seconds, Volts};
use spinamm_cmos::{AnalogWtaModel, DigitalMacAsic, DtcsDac, WtaStyle};
use spinamm_core::amm::{AmmConfig, AssociativeMemoryModule};
use spinamm_core::margin::{self, MarginPoint};
use spinamm_core::params::DesignParams;
use spinamm_core::recall;
use spinamm_core::CoreError;
use spinamm_data::dataset::{DatasetConfig, FaceDataset};
use spinamm_data::image::Resolution;
use spinamm_spin::dynamics::DwDynamics;
use spinamm_spin::geometry::DwGeometry;
use spinamm_spin::neuron::{DomainWallNeuron, NeuronConfig, TransferPoint};
use spinamm_spin::thermal::ThermalModel;

/// Builds the face dataset for a scale.
///
/// # Errors
///
/// Propagates dataset generation errors.
pub fn face_dataset(scale: &Scale) -> Result<FaceDataset, CoreError> {
    Ok(FaceDataset::generate(&DatasetConfig {
        individuals: scale.individuals,
        samples_per_individual: scale.samples_per_individual,
        ..DatasetConfig::default()
    })?)
}

// ---------------------------------------------------------------------------
// Fig. 3 — accuracy vs down-sizing and vs WTA resolution
// ---------------------------------------------------------------------------

/// One row of the Fig. 3 accuracy studies.
#[derive(Debug, Clone, PartialEq)]
pub struct AccuracyRow {
    /// Human-readable sweep label (e.g. `16x8` or `5-bit`).
    pub label: String,
    /// The swept quantity as a number (pixel count, or bits).
    pub parameter: f64,
    /// Ideal (infinite-precision software) accuracy.
    pub ideal: f64,
    /// Hardware (AMM) accuracy.
    pub hardware: f64,
}

/// Fig. 3a: classification accuracy vs image down-sizing, at 5-bit pixels.
///
/// # Errors
///
/// Propagates dataset/AMM errors.
pub fn fig3a(scale: &Scale) -> Result<Vec<AccuracyRow>, CoreError> {
    let data = face_dataset(scale)?;
    let resolutions: &[(usize, usize)] = if scale.individuals >= 20 {
        &[(32, 24), (16, 12), (16, 8), (8, 4), (4, 2), (2, 1)]
    } else {
        &[(16, 8), (8, 4), (2, 1)]
    };
    let mut rows = Vec::new();
    for &(w, h) in resolutions {
        let target = Resolution::new(w, h)?;
        let templates = data.templates(target, 5)?;
        let tests = data.test_vectors(target, 5)?;
        let ideal = recall::ideal_accuracy(&templates, &tests)?.accuracy();
        let mut amm = AssociativeMemoryModule::build(&templates, &AmmConfig::default())?;
        let hardware = recall::evaluate_accuracy(&mut amm, &tests)?.accuracy();
        rows.push(AccuracyRow {
            label: format!("{w}x{h}"),
            parameter: (w * h) as f64,
            ideal,
            hardware,
        });
    }
    Ok(rows)
}

/// Fig. 3b: classification accuracy vs WTA resolution at the paper's 16×8
/// operating point.
///
/// # Errors
///
/// Propagates dataset/AMM errors.
pub fn fig3b(scale: &Scale) -> Result<Vec<AccuracyRow>, CoreError> {
    let data = face_dataset(scale)?;
    let target = Resolution::template();
    let templates = data.templates(target, 5)?;
    let tests = data.test_vectors(target, 5)?;
    let ideal = recall::ideal_accuracy(&templates, &tests)?.accuracy();
    let bits_sweep: &[u32] = if scale.individuals >= 20 {
        &[2, 3, 4, 5, 6, 7]
    } else {
        &[3, 5]
    };
    let mut rows = Vec::new();
    for &bits in bits_sweep {
        let mut cfg = AmmConfig::default();
        cfg.params.comparator_bits = bits;
        let mut amm = AssociativeMemoryModule::build(&templates, &cfg)?;
        let hardware = recall::evaluate_accuracy(&mut amm, &tests)?.accuracy();
        rows.push(AccuracyRow {
            label: format!("{bits}-bit"),
            parameter: f64::from(bits),
            ideal,
            hardware,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Fig. 5 — DWM scaling
// ---------------------------------------------------------------------------

/// One row of the Fig. 5b threshold-scaling study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ThresholdRow {
    /// Uniform geometric scale factor relative to the 3×20×60 nm³ device.
    pub factor: f64,
    /// Analytic (pinned-equilibrium) threshold current, A.
    pub analytic: f64,
    /// Numerically bisected threshold from the 1-D dynamics, A.
    pub simulated: f64,
}

/// Fig. 5b: critical switching current vs device scaling.
///
/// # Errors
///
/// Propagates dynamics calibration errors.
pub fn fig5b(factors: &[f64]) -> Result<Vec<ThresholdRow>, CoreError> {
    let reference = DwDynamics::paper_reference();
    factors
        .iter()
        .map(|&factor| {
            let d = DwDynamics {
                geometry: DwGeometry::REFERENCE.scaled(factor)?,
                ..reference
            };
            Ok(ThresholdRow {
                factor,
                analytic: d.analytic_threshold().0,
                simulated: d.critical_current()?.0,
            })
        })
        .collect()
}

/// One row of the Fig. 5c switching-time study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SwitchingRow {
    /// Geometry scale factor.
    pub factor: f64,
    /// Drive current, A.
    pub current: f64,
    /// Switching time, s (`None` below threshold / horizon).
    pub time: Option<f64>,
}

/// Fig. 5c: switching time vs write current for several device sizes.
///
/// # Errors
///
/// Propagates geometry errors.
pub fn fig5c(factors: &[f64], currents_ua: &[f64]) -> Result<Vec<SwitchingRow>, CoreError> {
    let reference = DwDynamics::paper_reference();
    let mut rows = Vec::new();
    for &factor in factors {
        let d = DwDynamics {
            geometry: DwGeometry::REFERENCE.scaled(factor)?,
            ..reference
        };
        for &iua in currents_ua {
            rows.push(SwitchingRow {
                factor,
                current: iua * 1e-6,
                time: d.switching_time(Amps(iua * 1e-6)).map(|t| t.0),
            });
        }
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Fig. 7a — DWN transfer characteristic
// ---------------------------------------------------------------------------

/// Fig. 7a: the deterministic hysteretic transfer curve plus the
/// thermally smeared switching probability (Eb = 20 kT).
#[derive(Debug, Clone, PartialEq)]
pub struct TransferStudy {
    /// Swept deterministic transfer curve (up then down leg).
    pub hysteresis: Vec<TransferPoint>,
    /// `(current, switching probability)` for the thermal model at a 10 ns
    /// pulse (rising direction from the Down state).
    pub thermal: Vec<(f64, f64)>,
}

/// Runs the Fig. 7a study.
#[must_use]
pub fn fig7a(points: usize) -> TransferStudy {
    let config = NeuronConfig::paper();
    let mut neuron = DomainWallNeuron::new(config);
    let hysteresis = neuron.transfer_curve(Amps(3e-6), points, Seconds(10e-9));
    let thermal_model = ThermalModel::PAPER;
    let thermal = (0..points)
        .map(|k| {
            let i = 3e-6 * k as f64 / (points - 1) as f64;
            (
                i,
                thermal_model.switching_probability(Amps(i), config.threshold, Seconds(10e-9)),
            )
        })
        .collect();
    TransferStudy {
        hysteresis,
        thermal,
    }
}

// ---------------------------------------------------------------------------
// Fig. 8b — DTCS non-linearity
// ---------------------------------------------------------------------------

/// One DAC transfer curve at a given load ratio.
#[derive(Debug, Clone, PartialEq)]
pub struct DacCurve {
    /// Load conductance as a multiple of the DAC's full-scale conductance.
    pub load_ratio: f64,
    /// End-point integral non-linearity (fraction of full scale).
    pub inl: f64,
    /// `(code, current)` transfer points.
    pub transfer: Vec<(u32, f64)>,
}

/// Fig. 8b: DTCS-DAC transfer into progressively heavier loads.
///
/// # Errors
///
/// Propagates DAC design errors.
pub fn fig8b(load_ratios: &[f64]) -> Result<Vec<DacCurve>, CoreError> {
    let dac = DtcsDac::paper_input();
    let g_full = dac.ideal_conductance((1 << dac.bits) - 1)?;
    load_ratios
        .iter()
        .map(|&ratio| {
            let load = spinamm_circuit::units::Siemens(g_full.0 * ratio);
            Ok(DacCurve {
                load_ratio: ratio,
                inl: dac.current_inl(load),
                transfer: dac
                    .transfer_curve(load)
                    .into_iter()
                    .map(|(c, i)| (c, i.0))
                    .collect(),
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Fig. 9 — detection margins
// ---------------------------------------------------------------------------

/// Builds the margin-study inputs: face templates and probe vectors.
/// Templates plus labelled probe inputs for the margin studies.
type MarginWorkload = (Vec<Vec<u32>>, Vec<(usize, Vec<u32>)>);

fn margin_workload(scale: &Scale) -> Result<MarginWorkload, CoreError> {
    let data = face_dataset(scale)?;
    let target = Resolution::template();
    let templates = data.templates(target, 5)?;
    let tests = data.test_vectors(target, 5)?;
    // Spread the probes across individuals (one image per person).
    let step = scale.samples_per_individual;
    let probes: Vec<(usize, Vec<u32>)> = tests
        .into_iter()
        .step_by(step)
        .take(scale.margin_probes)
        .collect();
    Ok((templates, probes))
}

/// Fig. 9a: detection margin vs memristor conductance window (full
/// parasitic netlist solve).
///
/// # Errors
///
/// Propagates build/solve errors.
pub fn fig9a(scale: &Scale, window_scales: &[f64]) -> Result<Vec<MarginPoint>, CoreError> {
    let (templates, probes) = margin_workload(scale)?;
    margin::margin_vs_conductance_window(&templates, &probes, window_scales, &AmmConfig::default())
}

/// Fig. 9b: detection margin vs ΔV.
///
/// # Errors
///
/// Propagates build/solve errors.
pub fn fig9b(scale: &Scale, delta_vs_mv: &[f64]) -> Result<Vec<MarginPoint>, CoreError> {
    let (templates, probes) = margin_workload(scale)?;
    let dvs: Vec<Volts> = delta_vs_mv.iter().map(|&mv| Volts(mv * 1e-3)).collect();
    margin::margin_vs_delta_v(&templates, &probes, &dvs, &AmmConfig::default())
}

// ---------------------------------------------------------------------------
// Fig. 13 — power decomposition and variation sensitivity
// ---------------------------------------------------------------------------

/// One row of the Fig. 13a power study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PowerRow {
    /// DWN threshold, A.
    pub threshold: f64,
    /// Static power (RCM + SAR DAC rails), W.
    pub static_power: f64,
    /// Dynamic power (DWN, latch, digital), W.
    pub dynamic_power: f64,
}

impl PowerRow {
    /// Total power.
    #[must_use]
    pub fn total(&self) -> f64 {
        self.static_power + self.dynamic_power
    }
}

/// Fig. 13a: power of the proposed design vs DWN threshold, decomposed into
/// static and dynamic components.
///
/// # Errors
///
/// Propagates dataset/AMM errors.
pub fn fig13a(scale: &Scale, thresholds_ua: &[f64]) -> Result<Vec<PowerRow>, CoreError> {
    let data = face_dataset(scale)?;
    let target = Resolution::template();
    let templates = data.templates(target, 5)?;
    let probe = data.test_vectors(target, 5)?.swap_remove(0).1;
    thresholds_ua
        .iter()
        .map(|&ua| {
            let mut cfg = AmmConfig::default();
            cfg.params.dwn_threshold = Amps(ua * 1e-6);
            let mut amm = AssociativeMemoryModule::build(&templates, &cfg)?;
            let report = amm.power_report(&probe)?;
            Ok(PowerRow {
                threshold: ua * 1e-6,
                static_power: report.static_power.0,
                dynamic_power: report.dynamic_power.0,
            })
        })
        .collect()
}

/// One row of the Fig. 13b variation study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VariationRow {
    /// σ_VT of the minimum device, V.
    pub sigma_vt: f64,
    /// Power–delay product ratio MS-CMOS \[17\] / proposed.
    pub ratio_andreou: f64,
    /// Power–delay product ratio MS-CMOS \[18\] / proposed.
    pub ratio_dlugosz: f64,
}

/// Fig. 13b: PD-product ratio of the MS-CMOS designs over the proposed
/// design as transistor variations grow (4 % = 4–5-bit WTA resolution, as
/// in the paper's plot).
///
/// In the proposed WTA "the impact of transistor-variations in the
/// DTCS-DAC is limited to just a single step", so its PD product is taken
/// variation-independent; the MS-CMOS designs pay the quadratic
/// area-for-matching cost.
///
/// # Errors
///
/// Propagates dataset/AMM/model errors.
pub fn fig13b(scale: &Scale, sigmas_mv: &[f64]) -> Result<Vec<VariationRow>, CoreError> {
    let data = face_dataset(scale)?;
    let target = Resolution::template();
    let templates = data.templates(target, 5)?;
    let probe = data.test_vectors(target, 5)?.swap_remove(0).1;
    let mut cfg = AmmConfig::default();
    cfg.params.comparator_bits = 4; // the paper plots at 4 % WTA resolution
    let mut amm = AssociativeMemoryModule::build(&templates, &cfg)?;
    let report = amm.power_report(&probe)?;
    let proposed_pd = report.total_power().0 * report.latency.0;

    sigmas_mv
        .iter()
        .map(|&mv| {
            let sigma = Volts(mv * 1e-3);
            let a =
                AnalogWtaModel::new(WtaStyle::Andreou17, templates.len())?.with_sigma_vt(sigma)?;
            let d =
                AnalogWtaModel::new(WtaStyle::Dlugosz18, templates.len())?.with_sigma_vt(sigma)?;
            Ok(VariationRow {
                sigma_vt: sigma.0,
                ratio_andreou: a.power_delay_product(4).0 / proposed_pd,
                ratio_dlugosz: d.power_delay_product(4).0 / proposed_pd,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Table 1 — power / frequency / energy comparison
// ---------------------------------------------------------------------------

/// One resolution row of Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Table1Row {
    /// WTA resolution in bits.
    pub bits: u32,
    /// Proposed spin-CMOS module power, W.
    pub spin_power: f64,
    /// Długosz \[18\] power, W.
    pub dlugosz_power: f64,
    /// Andreou \[17\] power, W.
    pub andreou_power: f64,
    /// 45 nm digital ASIC power, W.
    pub digital_power: f64,
    /// Energy per recognition normalized to the proposed design
    /// (`spin = 1`): `[18]`, `[17]`, digital.
    pub energy_ratios: [f64; 3],
}

/// Operating frequencies of Table 1 (recognition rates).
pub const SPIN_FREQUENCY: f64 = 100e6;
/// MS-CMOS WTA rate of Table 1.
pub const ANALOG_FREQUENCY: f64 = 50e6;
/// Digital ASIC rate of Table 1.
pub const DIGITAL_FREQUENCY: f64 = 2.5e6;

/// Reproduces Table 1 at the given resolutions (paper: 5, 4, 3 bits).
///
/// The spin-CMOS column is *measured* from the simulated module (power of
/// a representative recognition, energy at the pipelined 100 MHz input
/// rate); the MS-CMOS and digital columns come from the calibrated baseline
/// models.
///
/// # Errors
///
/// Propagates dataset/AMM/model errors.
pub fn table1(scale: &Scale, bits_list: &[u32]) -> Result<Vec<Table1Row>, CoreError> {
    let data = face_dataset(scale)?;
    let target = Resolution::template();
    let templates = data.templates(target, 5)?;
    let tests = data.test_vectors(target, 5)?;
    let probes: Vec<&Vec<u32>> = tests.iter().map(|(_, v)| v).take(8).collect();

    bits_list
        .iter()
        .map(|&bits| {
            let mut cfg = AmmConfig::default();
            cfg.params.comparator_bits = bits;
            let mut amm = AssociativeMemoryModule::build(&templates, &cfg)?;
            // Average over several representative inputs, accounting the
            // pipelined operation the paper's 100 MHz Frequency row
            // implies: static rails burn per 10 ns slot, dynamic switching
            // energy is paid in full per recognition.
            let rate = spinamm_circuit::units::Hertz(SPIN_FREQUENCY);
            let mut power = 0.0;
            let mut energy = 0.0;
            for p in &probes {
                let report = amm.power_report(p)?;
                power += report.pipelined_power(rate).0;
                energy += report.pipelined_energy(rate).0;
            }
            let spin_power = power / probes.len() as f64;
            let spin_energy = energy / probes.len() as f64;

            let dlugosz = AnalogWtaModel::new(WtaStyle::Dlugosz18, templates.len())?;
            let andreou = AnalogWtaModel::new(WtaStyle::Andreou17, templates.len())?;
            let digital = DigitalMacAsic::paper(bits)?;
            let dlugosz_power = dlugosz.power(bits).0;
            let andreou_power = andreou.power(bits).0;
            let digital_power = digital.power().0;

            Ok(Table1Row {
                bits,
                spin_power,
                dlugosz_power,
                andreou_power,
                digital_power,
                energy_ratios: [
                    (dlugosz_power / ANALOG_FREQUENCY) / spin_energy,
                    (andreou_power / ANALOG_FREQUENCY) / spin_energy,
                    (digital_power / DIGITAL_FREQUENCY) / spin_energy,
                ],
            })
        })
        .collect()
}

/// Table 2: the canonical design parameters, rendered.
#[must_use]
pub fn table2() -> String {
    DesignParams::PAPER.to_string()
}

// ---------------------------------------------------------------------------
// Extensions (paper §5)
// ---------------------------------------------------------------------------

/// Result of the hierarchical-extension study: energy per recognition of
/// flat vs clustered organisation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HierarchyRow {
    /// Cluster count (1 = flat).
    pub clusters: usize,
    /// Mean recognition energy, J.
    pub energy: f64,
    /// Recognition accuracy on the probe set.
    pub accuracy: f64,
}

/// Compares flat and hierarchical organisations on the face workload.
///
/// # Errors
///
/// Propagates dataset/AMM errors.
pub fn hierarchy_study(
    scale: &Scale,
    cluster_counts: &[usize],
) -> Result<Vec<HierarchyRow>, CoreError> {
    let data = face_dataset(scale)?;
    let target = Resolution::template();
    let templates = data.templates(target, 5)?;
    let tests = data.test_vectors(target, 5)?;
    let probes: Vec<&(usize, Vec<u32>)> = tests.iter().take(scale.queries.min(40)).collect();

    let mut rows = Vec::new();
    for &k in cluster_counts {
        let (energy, accuracy) = if k <= 1 {
            let mut amm = AssociativeMemoryModule::build(&templates, &AmmConfig::default())?;
            let mut e = 0.0;
            let mut correct = 0;
            for (label, input) in &probes {
                let r = amm.recall(input)?;
                e += r.energy.total().0;
                if r.raw_winner == *label {
                    correct += 1;
                }
            }
            (
                e / probes.len() as f64,
                correct as f64 / probes.len() as f64,
            )
        } else {
            let mut h = spinamm_core::hierarchy::HierarchicalAmm::build(
                &templates,
                k,
                &AmmConfig::default(),
            )?;
            let mut e = 0.0;
            let mut correct = 0;
            for (label, input) in &probes {
                let r = h.recall(input)?;
                e += r.energy.total().0;
                if r.winner == *label {
                    correct += 1;
                }
            }
            (
                e / probes.len() as f64,
                correct as f64 / probes.len() as f64,
            )
        };
        rows.push(HierarchyRow {
            clusters: k.max(1),
            energy,
            accuracy,
        });
    }
    Ok(rows)
}

// ---------------------------------------------------------------------------
// Ablations — the design choices DESIGN.md calls out
// ---------------------------------------------------------------------------

/// One ablation variant's outcome.
#[derive(Debug, Clone, PartialEq)]
pub struct AblationRow {
    /// Variant label.
    pub variant: String,
    /// Recognition accuracy on the probe set.
    pub accuracy: f64,
    /// Mean signed margin, LSB units.
    pub margin: f64,
    /// Fraction of probes where the hardware tracker singled out the same
    /// winner as the digital scan.
    pub tracker_agreement: f64,
}

/// Ablation study over the face workload: baseline vs no-G_TS-equalization
/// vs no-gain-calibration.
///
/// # Errors
///
/// Propagates dataset/AMM errors.
pub fn ablation_study(scale: &Scale) -> Result<Vec<AblationRow>, CoreError> {
    let data = face_dataset(scale)?;
    let target = Resolution::template();
    let templates = data.templates(target, 5)?;
    let tests = data.test_vectors(target, 5)?;
    let probes: Vec<&(usize, Vec<u32>)> = tests.iter().take(scale.queries.min(100)).collect();

    let variants: [(&str, AmmConfig); 3] = [
        ("baseline", AmmConfig::default()),
        (
            "no G_TS equalization",
            AmmConfig {
                equalize_rows: false,
                ..AmmConfig::default()
            },
        ),
        (
            "no gain calibration",
            AmmConfig {
                gain_calibration: false,
                ..AmmConfig::default()
            },
        ),
    ];

    variants
        .iter()
        .map(|(name, cfg)| {
            let mut amm = AssociativeMemoryModule::build(&templates, cfg)?;
            let lsb = amm.lsb_current();
            let mut correct = 0usize;
            let mut margin = 0.0;
            let mut agree = 0usize;
            for (label, input) in &probes {
                let r = amm.recall(input)?;
                if r.raw_winner == *label {
                    correct += 1;
                }
                margin +=
                    spinamm_core::margin::labelled_margin_lsb(&r.column_currents, *label, lsb);
                if r.tracked_winner == Some(r.raw_winner) {
                    agree += 1;
                }
            }
            let n = probes.len() as f64;
            Ok(AblationRow {
                variant: (*name).to_string(),
                accuracy: correct as f64 / n,
                margin: margin / n,
                tracker_agreement: agree as f64 / n,
            })
        })
        .collect()
}

/// One row of the write-precision study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WritePrecisionRow {
    /// Write tolerance (relative band).
    pub tolerance: f64,
    /// Recognition accuracy.
    pub accuracy: f64,
    /// Mean programming pulses per cell (the energy-cost proxy the paper
    /// cites when justifying 3 % over 0.3 %).
    pub mean_pulses: f64,
}

/// Write-precision ablation: recognition accuracy and programming cost vs
/// memristor write tolerance. The paper picks 3 % ("equivalent to 5-bits")
/// noting that tighter precision raises write energy steeply — this study
/// shows both sides of that trade.
///
/// # Errors
///
/// Propagates dataset/AMM errors.
pub fn write_precision_study(
    scale: &Scale,
    tolerances: &[f64],
) -> Result<Vec<WritePrecisionRow>, CoreError> {
    use rand::SeedableRng;
    use spinamm_memristor::{DeviceLimits, LevelMap, Memristor, WriteScheme};

    let data = face_dataset(scale)?;
    let target = Resolution::template();
    let templates = data.templates(target, 5)?;
    let tests = data.test_vectors(target, 5)?;
    let probes: Vec<&(usize, Vec<u32>)> = tests.iter().take(scale.queries.min(60)).collect();

    tolerances
        .iter()
        .map(|&tol| {
            let mut cfg = AmmConfig::default();
            cfg.params.write_tolerance = tol;
            let mut amm = AssociativeMemoryModule::build(&templates, &cfg)?;
            let mut correct = 0usize;
            for (label, input) in &probes {
                if amm.recall(input)?.raw_winner == *label {
                    correct += 1;
                }
            }
            // Programming cost, measured on a representative cell sweep.
            let scheme = WriteScheme::new(tol)?;
            let map = LevelMap::new(DeviceLimits::PAPER, 5)?;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0x3117);
            let mut pulses = 0u32;
            let trials = 64u32;
            for k in 0..trials {
                let mut cell = Memristor::new(DeviceLimits::PAPER);
                let level = k % 32;
                pulses += cell
                    .program(map.conductance(level)?, &scheme, &mut rng)?
                    .pulses;
            }
            Ok(WritePrecisionRow {
                tolerance: tol,
                accuracy: correct as f64 / probes.len() as f64,
                mean_pulses: f64::from(pulses) / f64::from(trials),
            })
        })
        .collect()
}

/// One row of the settling study.
#[derive(Debug, Clone, PartialEq)]
pub struct SettlingRow {
    /// Description of the analysis point.
    pub label: String,
    /// Settling (or Elmore) time, seconds.
    pub time: f64,
    /// Whether it fits inside the 10 ns SAR cycle.
    pub within_cycle: bool,
}

/// RC settling study of the crossbar wiring: a transient solve of a
/// medium array plus Elmore extrapolation to the paper's 128×40 size —
/// quantifying the timing budget behind Table 2's 100 MHz row.
///
/// # Errors
///
/// Propagates build/solve errors.
pub fn settling_study() -> Result<Vec<SettlingRow>, CoreError> {
    use spinamm_circuit::units::{Ohms, Seconds, Siemens};
    use spinamm_crossbar::{CrossbarArray, CrossbarGeometry, RowDrive, SettlingStudy};
    use spinamm_memristor::DeviceLimits;

    let cycle = 10e-9;
    let study = SettlingStudy::new(CrossbarGeometry::PAPER);
    let mut rows = Vec::new();

    // Transient verification at a medium size (dense-solvable).
    let size = (12usize, 6usize);
    let mut array =
        CrossbarArray::new(size.0, size.1, DeviceLimits::PAPER).map_err(CoreError::Crossbar)?;
    for i in 0..size.0 {
        for j in 0..size.1 {
            let g = DeviceLimits::PAPER.g_min().0
                + ((i * 7 + j * 3) % 32) as f64 / 31.0
                    * (DeviceLimits::PAPER.g_max().0 - DeviceLimits::PAPER.g_min().0);
            array
                .set_conductance(i, j, Siemens(g))
                .map_err(CoreError::Crossbar)?;
        }
    }
    array.equalize_rows(None).map_err(CoreError::Crossbar)?;
    let drives = vec![
        RowDrive::SourceConductance {
            g: Siemens(4e-4),
            supply: spinamm_circuit::units::Volts(0.030),
        };
        size.0
    ];
    let report = study
        .transient(&array, &drives, Seconds(200e-12), 400)
        .map_err(CoreError::Crossbar)?;
    let t = report.max_settling.map_or(f64::NAN, |t| t.0);
    rows.push(SettlingRow {
        label: format!("transient, {}x{} array (0.1 % band)", size.0, size.1),
        time: t,
        within_cycle: report.settles_within(Seconds(cycle)),
    });

    // Elmore extrapolations.
    for (cells, label) in [
        (40usize, "row bar, 40 cells"),
        (128, "column bar, 128 cells"),
    ] {
        let tau = study.elmore_estimate(cells, Ohms(3_000.0)).0;
        rows.push(SettlingRow {
            label: format!("Elmore 10τ, {label} (paper scale)"),
            time: 10.0 * tau,
            within_cycle: 10.0 * tau <= cycle,
        });
    }
    Ok(rows)
}

/// One row of the drift (retention) study.
#[derive(Debug, Clone, PartialEq)]
pub struct DriftRow {
    /// Storage age before evaluation, seconds.
    pub age: f64,
    /// Accuracy after aging.
    pub accuracy: f64,
    /// Accuracy after a reprogramming refresh.
    pub refreshed_accuracy: f64,
}

/// Retention study: recognition accuracy vs template age under an
/// aggressive Ag-Si drift corner, with and without a reprogramming
/// refresh — quantifying the paper's implicit "non-volatile storage"
/// assumption.
///
/// # Errors
///
/// Propagates dataset/AMM errors.
pub fn drift_study(scale: &Scale, ages: &[f64]) -> Result<Vec<DriftRow>, CoreError> {
    use rand::SeedableRng;
    use spinamm_circuit::units::Seconds;
    use spinamm_memristor::DriftModel;

    let data = face_dataset(scale)?;
    let target = Resolution::template();
    let templates = data.templates(target, 5)?;
    let tests = data.test_vectors(target, 5)?;
    let probes: Vec<&(usize, Vec<u32>)> = tests.iter().take(scale.queries.min(60)).collect();
    let model = DriftModel::AGGRESSIVE;

    let accuracy_of = |amm: &mut AssociativeMemoryModule| -> Result<f64, CoreError> {
        let mut correct = 0usize;
        for (label, input) in &probes {
            if amm.recall(input)?.raw_winner == *label {
                correct += 1;
            }
        }
        Ok(correct as f64 / probes.len() as f64)
    };

    ages.iter()
        .map(|&age| {
            // Aged module: build, age the array in place, re-measure.
            let mut amm = AssociativeMemoryModule::build(&templates, &AmmConfig::default())?;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(0xd21f7 ^ age.to_bits());
            amm.age_array(Seconds(age), &model, &mut rng)?;
            let accuracy = accuracy_of(&mut amm)?;
            // Refresh = rebuild (reprogram every cell).
            let mut fresh = AssociativeMemoryModule::build(&templates, &AmmConfig::default())?;
            let refreshed_accuracy = accuracy_of(&mut fresh)?;
            Ok(DriftRow {
                age,
                accuracy,
                refreshed_accuracy,
            })
        })
        .collect()
}

/// One row of the programming-disturb study.
#[derive(Debug, Clone, PartialEq)]
pub struct DisturbStudyRow {
    /// Scheme / margin label.
    pub label: String,
    /// Half-select pulses per stored cell.
    pub exposure: f64,
    /// Worst-case relative conductance error after programming.
    pub max_error: f64,
    /// Cells pushed outside the 3 % write band.
    pub corrupted_cells: usize,
}

/// Half-select disturb study: programs a crossbar under V/2 biasing with a
/// safe margin (V_w/2 < V_th), a violated margin, and 1T1R isolation — the
/// quantified version of the crossbar-write-scheme claim the paper takes
/// from refs [1-2].
///
/// # Errors
///
/// Propagates crossbar errors.
pub fn disturb_study(rows: usize, cols: usize) -> Result<Vec<DisturbStudyRow>, CoreError> {
    use spinamm_crossbar::{ArrayProgrammer, BiasScheme, CrossbarArray};
    use spinamm_memristor::{DeviceLimits, LevelMap};

    let map = LevelMap::new(DeviceLimits::PAPER, 5)?;
    let targets: Vec<u32> = (0..rows * cols).map(|k| (k * 11 % 32) as u32).collect();
    let variants = [
        (
            "V/2, safe margin (Vw/2 < Vth)",
            ArrayProgrammer::safe(BiasScheme::HalfVoltage),
        ),
        (
            "V/2, violated margin (Vw/2 > Vth)",
            ArrayProgrammer::unsafe_margin(BiasScheme::HalfVoltage),
        ),
        ("1T1R isolated", ArrayProgrammer::safe(BiasScheme::Isolated)),
    ];
    variants
        .iter()
        .map(|(label, programmer)| {
            let mut array =
                CrossbarArray::new(rows, cols, DeviceLimits::PAPER).map_err(CoreError::Crossbar)?;
            let report = programmer
                .program(&mut array, &targets, &map, 0.03)
                .map_err(CoreError::Crossbar)?;
            Ok(DisturbStudyRow {
                label: (*label).to_string(),
                exposure: report.half_select_pulses as f64 / (rows * cols) as f64,
                max_error: report.max_error,
                corrupted_cells: report.cells_out_of_tolerance,
            })
        })
        .collect()
}

/// One row of the input-noise robustness study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct NoiseRow {
    /// Perturbation magnitude in levels (every element jittered).
    pub magnitude: u32,
    /// Ideal (software) accuracy.
    pub ideal: f64,
    /// Hardware accuracy.
    pub hardware: f64,
}

/// Input-noise robustness: recognition accuracy vs query perturbation
/// magnitude on a norm-equalized random workload — the generalization axis
/// the paper's "training accuracy" protocol does not probe. Hardware
/// degrades before software because quantization and analog noise eat the
/// shrinking margins first.
///
/// # Errors
///
/// Propagates workload/AMM errors.
pub fn noise_robustness_study(
    scale: &Scale,
    magnitudes: &[u32],
) -> Result<Vec<NoiseRow>, CoreError> {
    use spinamm_data::workload::{PatternWorkload, WorkloadConfig};

    magnitudes
        .iter()
        .map(|&magnitude| {
            let w = PatternWorkload::generate(&WorkloadConfig {
                pattern_count: 20,
                vector_len: 96,
                bits: 5,
                query_count: scale.queries.clamp(60, 80),
                query_noise: 1.0,
                noise_magnitude: magnitude.max(1),
                similarity: 0.85,
                seed: 0x401e,
            })?;
            let ideal = recall::ideal_accuracy(&w.patterns, &w.queries)?.accuracy();
            let mut amm = AssociativeMemoryModule::build(&w.patterns, &AmmConfig::default())?;
            let hardware = recall::evaluate_accuracy(&mut amm, &w.queries)?.accuracy();
            Ok(NoiseRow {
                magnitude,
                ideal,
                hardware,
            })
        })
        .collect()
}

/// One point of the yield study: a stuck-cell rate with and without the
/// graceful-degradation pass (spare-column remapping + masking).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct YieldRow {
    /// Total stuck-cell rate (split evenly between LRS and HRS pins).
    pub fault_rate: f64,
    /// Accuracy with no mitigation (no spares; faults land where they land).
    pub unmitigated_accuracy: f64,
    /// Accuracy with spares provisioned and the degradation pass applied.
    pub mitigated_accuracy: f64,
    /// Mean labelled detection margin (LSB), unmitigated.
    pub unmitigated_margin: f64,
    /// Mean labelled detection margin (LSB), mitigated.
    pub mitigated_margin: f64,
    /// Spare columns provisioned for the mitigated module.
    pub spare_columns: usize,
    /// Templates remapped to spares (mitigated module).
    pub remapped: u64,
    /// Columns masked out of the WTA (mitigated module).
    pub masked: u64,
    /// Cells that never verified within the retry budget (mitigated).
    pub unrecoverable: u64,
}

/// Yield study: recognition accuracy and margin vs stuck-cell rate at the
/// paper's 16×8 operating point, unmitigated vs mitigated (spare-column
/// remapping + column masking, see [`spinamm_core::degrade`]). The rate-0
/// unmitigated point is bit-identical to the [`fig3a`] 16×8 row — injecting
/// a pristine map changes nothing — which the CI smoke test asserts.
///
/// # Errors
///
/// Propagates dataset/AMM/fault-model errors.
pub fn yield_study(scale: &Scale) -> Result<Vec<YieldRow>, CoreError> {
    use spinamm_core::degrade::{DegradationPolicy, FaultReport};
    use spinamm_faults::{FaultMap, FaultModel};

    let data = face_dataset(scale)?;
    let target = Resolution::template();
    let templates = data.templates(target, 5)?;
    let tests = data.test_vectors(target, 5)?;
    let rows = templates[0].len();
    let cols = templates.len();
    // A quarter extra columns: enough pool depth that the min-predicted-
    // error pick beats the typical faulty column.
    let spares = cols.div_ceil(4);
    let policy = DegradationPolicy::default();
    let queries: Vec<&Vec<u32>> = tests.iter().map(|(_, v)| v).collect();

    let run = |spare_columns: usize, map: FaultMap| -> Result<(f64, f64, FaultReport), CoreError> {
        let cfg = AmmConfig {
            spare_columns,
            ..AmmConfig::default()
        };
        let mut amm = AssociativeMemoryModule::build(&templates, &cfg)?;
        let report = amm.inject_faults(map, &policy)?;
        let lsb = amm.lsb_current();
        let results = amm.recall_batch(&queries)?;
        let mut correct = 0usize;
        let mut margin = 0.0;
        for (r, (label, _)) in results.iter().zip(&tests) {
            if r.raw_winner == *label {
                correct += 1;
            }
            // The labelled column may have moved to a spare.
            margin += spinamm_core::margin::labelled_margin_lsb(
                &r.column_currents,
                amm.template_columns()[*label],
                lsb,
            );
        }
        let n = results.len() as f64;
        Ok((correct as f64 / n, margin / n, report))
    };

    [0.0, 0.01, 0.05, 0.10]
        .iter()
        .enumerate()
        .map(|(k, &rate)| {
            let model = FaultModel::stuck(rate)?;
            let seed = 0x51EED + k as u64;
            let (una, unm, _) = run(0, FaultMap::sample(&model, rows, cols, seed)?)?;
            let (mit, mim, rep) =
                run(spares, FaultMap::sample(&model, rows, cols + spares, seed)?)?;
            Ok(YieldRow {
                fault_rate: rate,
                unmitigated_accuracy: una,
                mitigated_accuracy: mit,
                unmitigated_margin: unm,
                mitigated_margin: mim,
                spare_columns: spares,
                remapped: rep.remapped,
                masked: rep.masked,
                unrecoverable: rep.unrecoverable,
            })
        })
        .collect()
}

// ---------------------------------------------------------------------------
// Telemetry capture for the JSON report
// ---------------------------------------------------------------------------

/// Runs a representative instrumented recognition workload — parasitic
/// fidelity so every layer fires (programming pulses, crossbar solves, SAR
/// cycles, WTA transitions, hardware/ideal mismatch events) — and returns
/// the captured telemetry.
///
/// The workload is deliberately small even at paper [`Scale`] (parasitic
/// nodal solves dominate wall time); `scale` only bounds the query count.
///
/// # Errors
///
/// Propagates workload/AMM errors.
pub fn telemetry_capture(scale: &Scale) -> Result<spinamm_telemetry::TelemetrySnapshot, CoreError> {
    use spinamm_data::workload::{PatternWorkload, WorkloadConfig};

    let w = PatternWorkload::generate(&WorkloadConfig {
        pattern_count: 8,
        vector_len: 32,
        bits: 5,
        query_count: scale.queries.clamp(8, 24),
        query_noise: 0.3,
        noise_magnitude: 2,
        similarity: 0.5,
        seed: 0x7e1e,
    })?;
    let cfg = AmmConfig {
        fidelity: spinamm_core::amm::Fidelity::Parasitic,
        ..AmmConfig::default()
    };
    let recorder = spinamm_telemetry::MemoryRecorder::default();
    let req = spinamm_core::RecallRequest::recorded(&recorder);
    let mut amm = AssociativeMemoryModule::build_request(&w.patterns, &cfg, &req)?;
    recall::evaluate_accuracy_with(&mut amm, &w.queries, Some(&w.patterns), &recorder)?;
    Ok(recorder.snapshot())
}

// ---------------------------------------------------------------------------
// E15 — cross-fidelity conformance sweep
// ---------------------------------------------------------------------------

/// The conformance study: a fresh seeded corpus sweep through every
/// fidelity and recall path, plus a replay of the committed divergence
/// corpus (see `conformance/corpus/` at the repository root).
#[derive(Debug, Clone, PartialEq)]
pub struct ConformanceStudy {
    /// Fresh seeded cases run through the differential oracle.
    pub cases: u64,
    /// Individual ledger checks evaluated across the sweep.
    pub checks: u64,
    /// Ledger violations with no waiver: fresh per-case divergences,
    /// aggregate agreement-floor violations, clean baselines that
    /// replayed dirty, and committed perturbed repros the oracle failed
    /// to re-catch (a detector regression). CI gates on this being zero.
    pub unwaived_divergences: u64,
    /// Whether every committed intentionally-perturbed repro still
    /// triggered the oracle on replay.
    pub injected_caught: bool,
    /// Committed corpus files replayed.
    pub corpus_repros_replayed: u64,
    /// Max |ΔDOM| observed between ideal and driven fidelity (budget:
    /// [`spinamm_conformance::ToleranceLedger::DEFAULT`]).
    pub observed_ideal_driven_dom_lsb: u32,
    /// Max |ΔDOM| observed between driven and parasitic fidelity.
    pub observed_driven_parasitic_dom_lsb: u32,
    /// Max |ΔDOM| observed across the metamorphic permutation check.
    pub observed_permutation_dom_lsb: u32,
    /// Flat↔partitioned winner agreement across the unfaulted sweep.
    pub flat_partitioned_agreement: f64,
    /// Flat↔hierarchical winner agreement across the unfaulted sweep.
    pub flat_hierarchical_agreement: f64,
    /// Flat↔tiled winner agreement across the unfaulted sweep (the pool's
    /// k=1 match mapped back to its build ordinal).
    pub flat_tiled_agreement: f64,
    /// Shrunk JSON repros for any fresh divergence, named by originating
    /// check; the experiments binary persists these under
    /// `conformance-repros/` so CI can upload them as a failure artifact.
    pub fresh_repros: Vec<(String, String)>,
}

/// Maps a harness failure onto the bench error type (divergences are
/// findings in the study, never errors).
fn conformance_err(e: spinamm_conformance::ConformanceError) -> CoreError {
    use spinamm_conformance::ConformanceError as E;
    use spinamm_engine::EngineError;
    match e {
        E::Core(c) => c,
        E::Engine(EngineError::Core(c)) => c,
        E::Engine(_) => CoreError::InvalidParameter {
            what: "conformance engine path rejected a submission",
        },
        E::InvalidParameter { what } => CoreError::InvalidParameter { what },
        E::Repro(_) => CoreError::InvalidParameter {
            what: "committed conformance repro failed to parse",
        },
    }
}

/// E15: runs the cross-fidelity conformance sweep. Quick scale samples 40
/// fresh cases; full scale samples 240 (the acceptance floor is 200). Both
/// replay the committed corpus: clean baselines must stay clean and
/// perturbed repros must still be caught.
///
/// # Errors
///
/// Propagates harness failures (an unrunnable case, a missing corpus
/// directory); ledger violations are reported, not raised.
pub fn conformance_study(scale: &Scale) -> Result<ConformanceStudy, CoreError> {
    use spinamm_conformance::{
        repro_from_json, repro_to_json, run_case, run_corpus, shrink_case, CorpusConfig,
        ToleranceLedger,
    };

    let ledger = ToleranceLedger::DEFAULT;
    let recorder = spinamm_telemetry::NoopRecorder;
    let cases = if scale.queries >= 100 { 240 } else { 40 };
    let corpus = run_corpus(
        &CorpusConfig {
            cases,
            base_seed: 0x0e15,
        },
        &ledger,
        &recorder,
    )
    .map_err(conformance_err)?;

    let mut unwaived = corpus.unwaived_divergences();
    let mut checks = corpus.checks;

    // Shrink fresh divergences to minimal repros (bounded: each shrink
    // re-runs the oracle dozens of times).
    let mut fresh_repros = Vec::new();
    for divergent in corpus.divergent.iter().take(4) {
        let (spec, divergences) = match shrink_case(&divergent.spec, &ledger) {
            Ok(s) => (s.spec, s.outcome.divergences),
            Err(_) => (divergent.spec.clone(), divergent.divergences.clone()),
        };
        let check = divergences
            .first()
            .map_or("unknown", |d| d.check.as_str())
            .replace('.', "-");
        fresh_repros.push((check, repro_to_json(&spec, &divergences)));
    }

    // Replay the committed corpus.
    let corpus_dir =
        std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../../conformance/corpus");
    let mut entries: Vec<_> = std::fs::read_dir(&corpus_dir)
        .map_err(|_| CoreError::InvalidParameter {
            what: "conformance/corpus directory not found (run from the repository)",
        })?
        .filter_map(Result::ok)
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    let mut replayed = 0u64;
    let mut perturbed_seen = 0u64;
    let mut injected_caught = true;
    for path in entries {
        let text = std::fs::read_to_string(&path).map_err(|_| CoreError::InvalidParameter {
            what: "unreadable conformance repro",
        })?;
        let (spec, recorded) = repro_from_json(&text).map_err(conformance_err)?;
        let outcome = run_case(&spec, &ledger, &recorder).map_err(conformance_err)?;
        replayed += 1;
        checks += outcome.checks;
        if recorded.is_empty() {
            // Clean baseline: any violation on replay is unwaived.
            unwaived += outcome.divergences.len() as u64;
        } else {
            perturbed_seen += 1;
            let recaught = recorded
                .iter()
                .all(|want| outcome.divergences.iter().any(|d| d.check == want.check));
            if !recaught {
                // Detector regression: the oracle lost a committed catch.
                injected_caught = false;
                unwaived += 1;
            }
        }
    }
    if perturbed_seen == 0 {
        injected_caught = false;
        unwaived += 1;
    }

    Ok(ConformanceStudy {
        cases: corpus.cases,
        checks,
        unwaived_divergences: unwaived,
        injected_caught,
        corpus_repros_replayed: replayed,
        observed_ideal_driven_dom_lsb: corpus.observed.ideal_driven_dom_lsb,
        observed_driven_parasitic_dom_lsb: corpus.observed.driven_parasitic_dom_lsb,
        observed_permutation_dom_lsb: corpus.observed.permutation_dom_lsb,
        flat_partitioned_agreement: corpus.flat_partitioned.rate(),
        flat_hierarchical_agreement: corpus.flat_hierarchical.rate(),
        flat_tiled_agreement: corpus.flat_tiled.rate(),
        fresh_repros,
    })
}

// ---------------------------------------------------------------------------
// E18 — tiled capacity study (ranked recall and energy/query vs stored templates)
// ---------------------------------------------------------------------------

/// One cell of the capacity sweep: a template count served at one ranking
/// depth.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityRow {
    /// Templates stored across the pool.
    pub templates: usize,
    /// Ranking depth requested from each recall.
    pub k: usize,
    /// Crossbar tiles the templates shard into.
    pub tiles: usize,
    /// Tiles whose evaluation phase runs a compiled kernel (every tile).
    pub compiled_tiles: usize,
    /// Queries served in the sequential pass.
    pub queries: usize,
    /// Mean recall energy across the pass's queries, J (summed over every
    /// tile the query touched).
    pub energy_per_query_j: f64,
    /// Whether every recall's ranked matches equalled an independent full
    /// argsort of the concatenated per-tile codes, truncated to `k`. CI
    /// gates on this.
    pub topk_matches_oracle: bool,
    /// Whether every recall's first match reproduced the legacy
    /// single-winner rule (`argmax_lowest_index` over the concatenation,
    /// DOM = the winner's own code). CI gates on this.
    pub top1_matches_wta: bool,
    /// Whether every engine response was bit-identical to a sequential
    /// recall of a pool clone in submission order. CI gates on this.
    pub engine_identical: bool,
}

/// The E18 capacity study: the sweep plus its measurement context.
#[derive(Debug, Clone, PartialEq)]
pub struct CapacityStudy {
    /// `std::thread::available_parallelism()` on the measuring host
    /// (printed for context, kept out of the JSON report).
    pub host_cpus: usize,
    /// Template slots per tile (uniform across the sweep).
    pub tile_capacity: usize,
    /// One row per (templates, k) cell.
    pub rows: Vec<CapacityRow>,
}

/// An independent ranking oracle: full argsort of the concatenated codes
/// by `(code desc, global column asc)`, truncated to `k`. Deliberately
/// not [`spinamm_core::capacity::top_k_merge`] — the study cross-checks
/// the merge tree against a reimplementation.
fn capacity_oracle(scores: &[u32], k: usize) -> Vec<(usize, u32)> {
    let mut all: Vec<(usize, u32)> = scores.iter().copied().enumerate().collect();
    all.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
    all.truncate(k);
    all
}

/// E18: shards 10³/10⁴ (full scale adds 10⁵) random templates across a
/// tiled capacity pool and serves a noisy query batch at ranking depths
/// k ∈ {1, 5, 10}, measuring energy per query and checking every ranked
/// result against a full argsort oracle and the legacy single-winner rule.
/// Every cell is also served through the recall engine and compared
/// bit-for-bit against sequential recall of a pool clone; the clones share
/// the pool's crossbar cells, tables and kernels.
///
/// # Errors
///
/// Propagates workload/pool/engine errors.
pub fn capacity_study(scale: &Scale) -> Result<CapacityStudy, CoreError> {
    use spinamm_core::capacity::TiledAmm;
    use spinamm_core::wta::argmax_lowest_index;
    use spinamm_data::workload::{PatternWorkload, WorkloadConfig};
    use spinamm_engine::{Deployment, EngineConfig, EngineError, EngineResponse, RecallEngine};

    const TILE_CAPACITY: usize = 128;
    let template_counts: &[usize] = if scale.queries >= 100 {
        &[1_000, 10_000, 100_000]
    } else {
        &[1_000, 10_000]
    };
    let depths: &[usize] = &[1, 5, 10];

    let engine_err = |e: EngineError| match e {
        EngineError::Core(c) => c,
        EngineError::QueueFull | EngineError::ShutDown => CoreError::InvalidParameter {
            what: "engine rejected a blocking submission",
        },
    };

    let mut rows = Vec::new();
    for &templates in template_counts {
        let w = PatternWorkload::generate(&WorkloadConfig {
            pattern_count: templates,
            vector_len: 64,
            bits: 5,
            // Four queries at 10⁵ templates keep the full-scale sweep short.
            query_count: if templates > 10_000 {
                4
            } else {
                scale.queries.clamp(4, 12)
            },
            query_noise: 0.3,
            noise_magnitude: 2,
            similarity: 0.0,
            seed: 0x0e18 ^ templates as u64,
        })?;
        let inputs: Vec<Vec<u32>> = w.queries.iter().map(|(_, q)| q.clone()).collect();
        let mut pool = TiledAmm::build(&w.patterns, TILE_CAPACITY, &AmmConfig::default())?;
        for &k in depths {
            pool.set_top_k(k)?;

            // Engine bit-identity against sequential recall of a clone.
            let mut reference = pool.clone();
            let expected: Vec<_> = inputs
                .iter()
                .map(|q| reference.recall(q))
                .collect::<Result<_, _>>()?;
            drop(reference);
            let engine = RecallEngine::new(
                Deployment::Tiled(pool.clone()),
                &EngineConfig::builder().workers(2).queue_capacity(4).build(),
            );
            let mut responses = Vec::with_capacity(inputs.len());
            for window in inputs.chunks(4) {
                responses.extend(engine.recall_many(window).map_err(engine_err)?);
            }
            engine.shutdown();
            let engine_identical = responses.len() == expected.len()
                && responses
                    .iter()
                    .zip(&expected)
                    .all(|(r, e)| matches!(r, EngineResponse::Tiled(t) if t == e));

            // Sequential pass on the pool itself, with ranking checks on
            // every result.
            let results: Vec<_> = inputs
                .iter()
                .map(|q| pool.recall(q))
                .collect::<Result<_, _>>()?;
            let mut topk_matches_oracle = true;
            let mut top1_matches_wta = true;
            let mut energy = 0.0;
            for r in &results {
                energy += r.energy.total().0;
                let ranked: Vec<(usize, u32)> = r
                    .matches
                    .iter()
                    .map(|m| (m.global_column, m.score))
                    .collect();
                if ranked != capacity_oracle(&r.scores, ranked.len()) {
                    topk_matches_oracle = false;
                }
                match argmax_lowest_index(&r.scores) {
                    Some(legacy)
                        if r.matches.first().map(|m| m.global_column) == Some(legacy)
                            && r.dom == r.scores[legacy] => {}
                    _ => top1_matches_wta = false,
                }
            }

            rows.push(CapacityRow {
                templates,
                k,
                tiles: pool.tile_count(),
                compiled_tiles: pool.compiled_tiles(),
                queries: inputs.len(),
                energy_per_query_j: energy / results.len().max(1) as f64,
                topk_matches_oracle,
                top1_matches_wta,
                engine_identical,
            });
        }
    }
    Ok(CapacityStudy {
        host_cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        tile_capacity: TILE_CAPACITY,
        rows,
    })
}

/// One checkpoint of one lifetime arm.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimePoint {
    /// Virtual queries served so far.
    pub queries: f64,
    /// Virtual seconds elapsed.
    pub virtual_seconds: f64,
    /// Threshold-respecting recognition accuracy (accepted winners only;
    /// the paper's §4B DOM discard rule is the quantity drift erodes).
    pub accuracy: f64,
    /// Cumulative template refreshes.
    pub refreshes: u64,
    /// Cumulative refresh write pulses.
    pub refresh_pulses: u64,
    /// Cumulative refresh write energy, joules.
    pub refresh_energy_j: f64,
    /// Cumulative endurance conversions.
    pub worn_cells: u64,
}

/// One arm (drift corner × maintenance policy) of the lifetime study.
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeArm {
    /// Drift corner label (`typical` / `aggressive`).
    pub corner: String,
    /// Whether the maintenance scheduler intervenes.
    pub maintained: bool,
    /// Accuracy at virtual time zero (faults injected, no drift).
    pub fresh_accuracy: f64,
    /// Accuracy at the final checkpoint.
    pub final_accuracy: f64,
    /// Mean recall energy per query, joules (fresh-state probes).
    pub recall_energy_per_query_j: f64,
    /// Refresh write energy over the horizon ÷ recall energy over the
    /// horizon — the maintenance tax CI bounds at 10 %.
    pub refresh_overhead: f64,
    /// Maintenance checks run.
    pub checks: u64,
    /// Total template refreshes (margin- plus schedule-triggered).
    pub refreshes: u64,
    /// Margin-triggered refreshes.
    pub margin_refreshes: u64,
    /// Wall-clock-scheduled refreshes.
    pub scheduled_refreshes: u64,
    /// Wear-leveled migrations.
    pub migrations: u64,
    /// Log-spaced checkpoints.
    pub points: Vec<LifetimePoint>,
}

/// The lifetime study (E20).
#[derive(Debug, Clone, PartialEq)]
pub struct LifetimeStudy {
    /// Virtual seconds one query represents.
    pub query_period_s: f64,
    /// Queries in the simulated horizon.
    pub horizon_queries: f64,
    /// DOM acceptance threshold the probes recall under.
    pub dom_threshold: u32,
    /// Stuck-cell rate of the manufacturing fault map (E13 distribution).
    pub fault_rate: f64,
    /// The four arms: {typical, aggressive} × {maintained, unmaintained}.
    pub arms: Vec<LifetimeArm>,
}

/// Lifetime study (E20): recognition accuracy, energy and refresh
/// overhead over a long virtual-time traffic horizon (10⁶ queries quick,
/// 10⁹-equivalent full), with and without the `spinamm-lifetime`
/// maintenance scheduler, under the E13 manufacturing-fault distribution
/// at the TYPICAL and AGGRESSIVE drift corners.
///
/// Uniform median drift rescales every column together, so *ranking*
/// survives long after absolute DOM margins collapse — the probes
/// therefore recall under the paper's DOM acceptance threshold, where
/// unmaintained drift turns stored patterns into rejections.
///
/// # Errors
///
/// Propagates dataset/AMM/scheduler errors.
pub fn lifetime_study(scale: &Scale) -> Result<LifetimeStudy, CoreError> {
    use spinamm_core::degrade::DegradationPolicy;
    use spinamm_faults::{FaultMap, FaultModel};
    use spinamm_lifetime::{LifetimeError, MaintenanceConfig, MaintenanceScheduler};
    use spinamm_memristor::DriftModel;

    /// Virtual seconds of wall time one query represents (200 q/s per
    /// module — a conservative duty cycle for an always-on recognizer).
    const QUERY_PERIOD: f64 = 0.005;
    /// E13 stuck-cell rate.
    const FAULT_RATE: f64 = 0.01;
    /// DOM acceptance threshold: two LSBs of headroom under the fresh
    /// worst-case matching DOM at template resolution.
    const DOM_THRESHOLD: u32 = 24;
    /// Endurance budget for the maintained arms: refreshes spend ~1.5e5
    /// pulses per cell over the full horizon, well inside a 10⁶-cycle
    /// RRAM part — the counter stays live without manufacturing wear-out.
    const MAX_CYCLES: u64 = 1_000_000;

    let full = scale.queries >= 100;
    let checkpoints: &[f64] = if full {
        &[1e6, 1e7, 1e8, 1e9]
    } else {
        &[1e4, 1e5, 1e6]
    };
    let horizon_queries = *checkpoints.last().expect("non-empty");

    let lifetime_err = |e: LifetimeError| match e {
        LifetimeError::Core(c) => c,
        _ => CoreError::InvalidParameter {
            what: "lifetime scheduler failure",
        },
    };

    let data = face_dataset(scale)?;
    let target = Resolution::template();
    let templates = data.templates(target, 5)?;
    let tests = data.test_vectors(target, 5)?;
    // Accuracy probes: enough that a single near-tie recall flipping on
    // ±1 ADC code (the 5-bit DOM quantization makes argmax ties common)
    // moves the estimate by well under the 2-point acceptance band.
    let probes: Vec<&(usize, Vec<u32>)> = tests.iter().take(scale.queries.min(200)).collect();
    let rows = templates[0].len();
    let config = AmmConfig {
        dom_threshold: DOM_THRESHOLD,
        spare_columns: 2,
        ..AmmConfig::default()
    };

    let accuracy_of = |amm: &mut AssociativeMemoryModule| -> Result<f64, CoreError> {
        let mut correct = 0usize;
        for (label, input) in &probes {
            if amm.recall(input)?.winner == Some(*label) {
                correct += 1;
            }
        }
        Ok(correct as f64 / probes.len() as f64)
    };

    let mut arms = Vec::new();
    for (corner, model) in [
        ("typical", DriftModel::TYPICAL),
        ("aggressive", DriftModel::AGGRESSIVE),
    ] {
        for maintained in [true, false] {
            let mut amm = AssociativeMemoryModule::build(&templates, &config)?;
            let map = FaultMap::sample(
                &FaultModel::stuck(FAULT_RATE).map_err(CoreError::Faults)?,
                rows,
                amm.array().cols(),
                0xfa11,
            )
            .map_err(CoreError::Faults)?;
            amm.inject_faults(map, &DegradationPolicy::default())?;
            let fresh_accuracy = accuracy_of(&mut amm)?;
            let energy_probes = probes.len().min(8);
            let mut recall_energy = 0.0;
            for (_, input) in probes.iter().take(energy_probes) {
                recall_energy += amm.power_report(input)?.energy.total().0;
            }
            let recall_energy = recall_energy / energy_probes as f64;

            let base = if maintained {
                MaintenanceConfig {
                    max_cycles: Some(MAX_CYCLES),
                    ..MaintenanceConfig::new(model)
                }
            } else {
                MaintenanceConfig::monitor(model)
            };
            // The margin predictor assumes a fully-driven column, which
            // overestimates the DOM a real query loses by roughly the
            // full-scale-current / LSB ratio (~17-25× here). Checks run
            // every 200 virtual seconds; at the aggressive corner the
            // front-loaded log drift erodes ~7 % of conductance per
            // inter-check interval, a predicted ~30-40 LSB against the
            // 25-LSB budget — so every live column refreshes each check
            // while the *actual* matching-DOM loss stays under ~2 LSB of
            // the acceptance headroom. At the typical corner the
            // predicted erosion never reaches the budget and the arms
            // coast on retention alone.
            let mconfig = MaintenanceConfig {
                query_period: Seconds(QUERY_PERIOD),
                check_period: Seconds(200.0),
                margin_budget_lsb: 25.0,
                ..base
            };
            let mut sched = MaintenanceScheduler::new(amm, mconfig).map_err(lifetime_err)?;

            let mut points = Vec::new();
            for &q in checkpoints {
                sched
                    .advance_to(Seconds(q * QUERY_PERIOD))
                    .map_err(lifetime_err)?;
                let accuracy = accuracy_of(sched.module_mut().map_err(lifetime_err)?)?;
                let s = sched.stats();
                points.push(LifetimePoint {
                    queries: q,
                    virtual_seconds: q * QUERY_PERIOD,
                    accuracy,
                    refreshes: s.refreshes,
                    refresh_pulses: s.refresh_pulses,
                    refresh_energy_j: s.refresh_energy.0,
                    worn_cells: s.worn_cells,
                });
            }
            let s = sched.stats();
            arms.push(LifetimeArm {
                corner: corner.to_string(),
                maintained,
                fresh_accuracy,
                final_accuracy: points.last().expect("non-empty").accuracy,
                recall_energy_per_query_j: recall_energy,
                refresh_overhead: s.refresh_energy.0 / (recall_energy * horizon_queries),
                checks: s.checks,
                refreshes: s.refreshes,
                margin_refreshes: s.margin_refreshes,
                scheduled_refreshes: s.scheduled_refreshes,
                migrations: s.migrations,
                points,
            });
        }
    }

    Ok(LifetimeStudy {
        query_period_s: QUERY_PERIOD,
        horizon_queries,
        dom_threshold: DOM_THRESHOLD,
        fault_rate: FAULT_RATE,
        arms,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn quick() -> Scale {
        Scale::quick()
    }

    #[test]
    fn fig3a_quick_trends() {
        let rows = fig3a(&quick()).unwrap();
        assert_eq!(rows.len(), 3);
        // Accuracy at 16×8 should beat the 2-pixel degenerate case.
        let first = &rows[0];
        let last = rows.last().unwrap();
        assert!(first.ideal > last.ideal);
        assert!(first.hardware > last.hardware);
        assert!(first.ideal > 0.85, "ideal at 16x8: {}", first.ideal);
    }

    #[test]
    fn fig3b_quick_resolution_trend() {
        let rows = fig3b(&quick()).unwrap();
        assert_eq!(rows.len(), 2);
        // 5-bit hardware tracks ideal; 3-bit loses accuracy.
        let three = &rows[0];
        let five = &rows[1];
        assert!(five.hardware >= three.hardware);
        assert!(five.hardware >= five.ideal - 0.1);
    }

    #[test]
    fn fig5b_threshold_scaling() {
        let rows = fig5b(&[0.5, 1.0]).unwrap();
        assert!((rows[1].analytic - 1e-6).abs() / 1e-6 < 1e-9);
        // Quadratic area scaling.
        assert!((rows[0].analytic / rows[1].analytic - 0.25).abs() < 1e-9);
        for r in &rows {
            assert!((r.simulated - r.analytic).abs() / r.analytic < 0.25);
        }
    }

    #[test]
    fn fig5c_switching_trends() {
        let rows = fig5c(&[1.0], &[0.5, 2.0, 4.0, 8.0]).unwrap();
        assert_eq!(rows.len(), 4);
        assert!(rows[0].time.is_none(), "below threshold");
        let t2 = rows[1].time.unwrap();
        let t8 = rows[3].time.unwrap();
        assert!(t2 > t8);
    }

    #[test]
    fn fig7a_hysteresis_and_smearing() {
        let study = fig7a(51);
        assert_eq!(study.hysteresis.len(), 102);
        assert_eq!(study.thermal.len(), 51);
        // The thermal curve is monotone and spans (0, 1).
        let first = study.thermal.first().unwrap().1;
        let last = study.thermal.last().unwrap().1;
        assert!(first < 0.01);
        assert!(last > 0.99);
    }

    #[test]
    fn fig8b_inl_grows_with_loading() {
        let curves = fig8b(&[100.0, 2.0, 0.5]).unwrap();
        assert!(curves[0].inl < curves[1].inl);
        assert!(curves[1].inl < curves[2].inl);
        assert_eq!(curves[0].transfer.len(), 32);
    }

    #[test]
    fn table1_quick_shape() {
        let rows = table1(&quick(), &[5, 3]).unwrap();
        assert_eq!(rows.len(), 2);
        for r in &rows {
            // The proposed design wins by orders of magnitude.
            assert!(r.spin_power < 1e-3, "spin power {}", r.spin_power);
            assert!(r.dlugosz_power > 10.0 * r.spin_power);
            assert!(r.energy_ratios.iter().all(|&x| x > 10.0));
            // Digital is the most energy-hungry per op.
            assert!(r.energy_ratios[2] > r.energy_ratios[0]);
        }
    }

    #[test]
    fn table2_lists_parameters() {
        let s = table2();
        assert!(s.contains("16x8"));
        assert!(s.contains("Ic = 1"));
    }

    #[test]
    fn fig13a_static_scales_with_threshold() {
        let rows = fig13a(&quick(), &[0.5, 2.0]).unwrap();
        assert!(rows[1].static_power > 2.0 * rows[0].static_power);
        // Dynamic power stays within a factor ~2 across the sweep.
        let dyn_ratio = rows[1].dynamic_power / rows[0].dynamic_power;
        assert!(dyn_ratio < 2.0, "dynamic ratio {dyn_ratio}");
    }

    #[test]
    fn fig13b_ratio_grows_with_sigma() {
        let rows = fig13b(&quick(), &[5.0, 15.0]).unwrap();
        assert!(rows[1].ratio_andreou > 5.0 * rows[0].ratio_andreou);
        assert!(
            rows[0].ratio_dlugosz > 1.0,
            "MS-CMOS must be worse even at 5 mV"
        );
    }

    #[test]
    fn ablation_study_shows_design_choices_matter() {
        let rows = ablation_study(&quick()).unwrap();
        assert_eq!(rows.len(), 3);
        let baseline = &rows[0];
        let no_gain = &rows[2];
        assert!(baseline.accuracy > 0.5);
        // Without gain calibration the signal uses a fraction of the ADC
        // range: margins (in LSB) collapse and accuracy falls.
        assert!(
            no_gain.margin < 0.5 * baseline.margin,
            "no-gain margin {} vs baseline {}",
            no_gain.margin,
            baseline.margin
        );
        assert!(no_gain.accuracy <= baseline.accuracy);
        // Tracker agreement is high whenever codes are unambiguous.
        assert!(baseline.tracker_agreement > 0.5);
    }

    #[test]
    fn settling_study_fits_the_cycle() {
        let rows = settling_study().unwrap();
        assert!(rows.len() >= 3);
        for r in &rows {
            assert!(
                r.within_cycle,
                "{} takes {} s — outside the 10 ns cycle",
                r.label, r.time
            );
            assert!(r.time > 0.0 && r.time < 10e-9);
        }
    }

    #[test]
    fn noise_robustness_trend() {
        let rows = noise_robustness_study(&quick(), &[1, 24]).unwrap();
        assert_eq!(rows.len(), 2);
        assert!(rows[0].hardware > 0.8, "light noise: {}", rows[0].hardware);
        assert!(
            rows[1].hardware < rows[0].hardware - 0.05,
            "±24-level jitter must visibly degrade: {} vs {}",
            rows[1].hardware,
            rows[0].hardware
        );
        // Hardware never beats software by more than sampling noise.
        for r in &rows {
            assert!(r.hardware <= r.ideal + 0.1);
        }
    }

    #[test]
    fn disturb_study_shape() {
        let rows = disturb_study(8, 6).unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[0].corrupted_cells, 0, "safe V/2 must not disturb");
        assert!(rows[1].corrupted_cells > 0, "violated margin must corrupt");
        assert_eq!(rows[2].corrupted_cells, 0, "1T1R never disturbs");
        assert!(rows[0].exposure > 0.0 && rows[2].exposure == 0.0);
    }

    #[test]
    fn write_precision_trade_off() {
        let rows = write_precision_study(&quick(), &[0.003, 0.03, 0.3]).unwrap();
        assert_eq!(rows.len(), 3);
        // Tighter tolerance costs more pulses...
        assert!(rows[0].mean_pulses > rows[1].mean_pulses);
        assert!(rows[1].mean_pulses >= rows[2].mean_pulses);
        // ...while very sloppy writes lose accuracy.
        assert!(
            rows[2].accuracy <= rows[1].accuracy,
            "30 % writes {} should not beat 3 % writes {}",
            rows[2].accuracy,
            rows[1].accuracy
        );
    }

    #[test]
    fn drift_study_degrades_then_refreshes() {
        let rows = drift_study(&quick(), &[1.0, 1e8]).unwrap();
        assert_eq!(rows.len(), 2);
        // Fresh-ish templates work; heavily aged ones lose accuracy; a
        // refresh restores it.
        assert!(rows[0].accuracy > 0.5);
        assert!(rows[1].accuracy <= rows[0].accuracy);
        assert!(rows[1].refreshed_accuracy >= rows[1].accuracy);
    }

    #[test]
    fn yield_study_degrades_gracefully() {
        let rows = yield_study(&quick()).unwrap();
        assert_eq!(rows.len(), 4);
        for pair in rows.windows(2) {
            assert!(pair[0].fault_rate < pair[1].fault_rate, "rates monotone");
        }
        for r in &rows {
            for acc in [r.unmitigated_accuracy, r.mitigated_accuracy] {
                assert!((0.0..=1.0).contains(&acc), "accuracy {acc} out of range");
            }
        }
        // Injecting a pristine map is a no-op: the unmitigated zero-fault
        // point reproduces the fig3a 16×8 hardware accuracy exactly.
        let fig = fig3a(&quick()).unwrap();
        assert_eq!(rows[0].unmitigated_accuracy, fig[0].hardware);
        // Graceful degradation: at the 5 % rate, remapping + masking keep
        // at least half of the unmitigated accuracy drop.
        let r5 = &rows[2];
        assert!((r5.fault_rate - 0.05).abs() < 1e-12);
        let unmit_drop = rows[0].unmitigated_accuracy - r5.unmitigated_accuracy;
        let mit_drop = rows[0].mitigated_accuracy - r5.mitigated_accuracy;
        assert!(
            unmit_drop > 0.0,
            "5 % stuck cells must hurt an unprotected module"
        );
        assert!(
            mit_drop <= 0.5 * unmit_drop,
            "mitigated drop {mit_drop} vs unmitigated {unmit_drop}"
        );
        assert!(r5.remapped > 0, "5 % rate should trigger remaps");
    }

    #[test]
    fn conformance_study_is_clean_at_quick_scale() {
        let study = conformance_study(&quick()).unwrap();
        assert_eq!(study.cases, 40);
        assert_eq!(
            study.unwaived_divergences, 0,
            "fresh repros: {:?}",
            study.fresh_repros
        );
        assert!(
            study.injected_caught,
            "committed perturbed repro not re-caught"
        );
        assert!(study.corpus_repros_replayed >= 2);
        assert!(study.checks > study.cases);
        assert!(study.fresh_repros.is_empty());
        assert!(study.flat_partitioned_agreement >= 0.90);
        assert!(study.flat_hierarchical_agreement >= 0.85);
        assert!(study.flat_tiled_agreement >= 0.90);
    }

    #[test]
    fn capacity_study_quick_shape() {
        let study = capacity_study(&quick()).unwrap();
        // quick sweep: templates {1e3, 1e4} × k {1, 5, 10}.
        assert_eq!(study.rows.len(), 6);
        assert!(study.host_cpus >= 1);
        assert_eq!(study.tile_capacity, 128);
        for r in &study.rows {
            assert!(
                r.topk_matches_oracle,
                "{} templates k={} diverged from the argsort oracle",
                r.templates, r.k
            );
            assert!(
                r.top1_matches_wta,
                "{} templates k={} broke the legacy single-winner rule",
                r.templates, r.k
            );
            assert!(
                r.engine_identical,
                "{} templates k={} engine diverged",
                r.templates, r.k
            );
            assert!(r.energy_per_query_j > 0.0);
            assert_eq!(r.tiles, r.templates.div_ceil(study.tile_capacity));
            assert!(r.compiled_tiles <= r.tiles);
        }
    }

    #[test]
    fn hierarchy_study_runs() {
        let rows = hierarchy_study(&quick(), &[1, 2]).unwrap();
        assert_eq!(rows.len(), 2);
        // At this miniature scale (8 patterns, 2 clusters) the two-level
        // organisation saves column evaluations but pays a second input
        // conversion; the win materialises at larger pattern counts (see
        // the full-scale hierarchy rows in BENCH_full.json). Here we only
        // require the same order.
        assert!(rows[1].energy < 2.0 * rows[0].energy);
        assert!(rows[0].accuracy > 0.5);
        assert!(rows[1].energy > 0.0 && rows[1].accuracy >= 0.0);
    }
}
