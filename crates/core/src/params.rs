//! Solver parameter files.
//!
//! The paper's artifact drives runs with JSON parameter files
//! (`BSSN_GR/pars/q1.par.json`). We support the same workflow: a par file
//! is one JSON object of scalar values, parsed with the workspace's own
//! `gw_obs::json` parser (dependency-free on purpose, see DESIGN.md's
//! dependency policy) and read strictly — every key must be known and
//! every value of the right type and range.

use crate::backend::RhsKind;
use crate::solver::{ConfigError, SolverConfig};
use crate::supervisor::SupervisorConfig;
use gw_bssn::BssnParams;
use gw_expr::schedule::ScheduleStrategy;
use gw_obs::json::Value;
use std::any::type_name;
use std::cell::RefCell;

/// A typed parameter-file failure, so callers (notably the
/// `bssn_solver` binary's exit codes) can distinguish an unreadable file
/// from a malformed one from a validly-parsed-but-invalid configuration.
#[derive(Clone, Debug)]
pub enum ParamError {
    /// The file could not be read.
    Io { path: String, error: String },
    /// The text is not a JSON object.
    Parse(String),
    /// A run parameter is out of range or inconsistent.
    Invalid(String),
    /// The embedded [`SolverConfig`] is invalid.
    Config(ConfigError),
}

impl std::fmt::Display for ParamError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParamError::Io { path, error } => write!(f, "{path}: {error}"),
            ParamError::Parse(e) => write!(f, "parse error: {e}"),
            ParamError::Invalid(e) => write!(f, "{e}"),
            ParamError::Config(e) => write!(f, "{e}"),
        }
    }
}

impl std::error::Error for ParamError {}

impl From<ConfigError> for ParamError {
    fn from(e: ConfigError) -> Self {
        ParamError::Config(e)
    }
}

/// The members of a par file behind typed accessors. Each accessor
/// rejects a value of the wrong type or range with a [`ParamError`]
/// naming its key and records the key as known; [`ParFile::finish`] then
/// rejects every member no accessor asked for, so a misspelt key cannot
/// silently leave its parameter at the default.
struct ParFile<'a> {
    members: &'a [(String, Value)],
    known: RefCell<Vec<&'static str>>,
}

impl<'a> ParFile<'a> {
    fn new(doc: &'a Value) -> Result<Self, ParamError> {
        let members =
            doc.as_obj().ok_or_else(|| ParamError::Parse("expected a JSON object {...}".into()))?;
        for (i, (key, _)) in members.iter().enumerate() {
            if members[..i].iter().any(|(k, _)| k == key) {
                return Err(ParamError::Invalid(format!("{key}: set more than once")));
            }
        }
        Ok(Self { members, known: RefCell::new(Vec::new()) })
    }

    fn get(&self, key: &'static str) -> Option<&'a Value> {
        self.known.borrow_mut().push(key);
        self.members.iter().find(|(k, _)| k == key).map(|(_, v)| v)
    }

    fn wrong(key: &str, want: &str, got: &Value) -> ParamError {
        ParamError::Invalid(format!("{key}: expected {want}, got {got}"))
    }

    fn num(&self, key: &'static str, default: f64) -> Result<f64, ParamError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.as_f64().ok_or_else(|| Self::wrong(key, "a number", v)),
        }
    }

    /// A whole, non-negative number that fits `T`.
    fn count<T: TryFrom<u64>>(&self, key: &'static str, default: T) -> Result<T, ParamError> {
        let Some(v) = self.get(key) else { return Ok(default) };
        v.as_f64()
            .filter(|x| x.fract() == 0.0 && *x >= 0.0 && *x <= u64::MAX as f64)
            .and_then(|x| T::try_from(x as u64).ok())
            .ok_or_else(|| {
                Self::wrong(key, &format!("a non-negative {} integer", type_name::<T>()), v)
            })
    }

    fn flag(&self, key: &'static str, default: bool) -> Result<bool, ParamError> {
        match self.get(key) {
            None => Ok(default),
            Some(Value::Bool(b)) => Ok(*b),
            Some(v) => Err(Self::wrong(key, "true or false", v)),
        }
    }

    fn string(&self, key: &'static str) -> Result<Option<&'a str>, ParamError> {
        match self.get(key) {
            None => Ok(None),
            Some(v) => v.as_str().map(Some).ok_or_else(|| Self::wrong(key, "a string", v)),
        }
    }

    /// Reject the members no accessor read.
    fn finish(self) -> Result<(), ParamError> {
        let known = self.known.into_inner();
        match self.members.iter().find(|(k, _)| !known.contains(&k.as_str())) {
            Some((key, _)) => Err(ParamError::Invalid(format!("unknown parameter \"{key}\""))),
            None => Ok(()),
        }
    }
}

/// Full run description parsed from a par file.
#[derive(Clone, Debug)]
pub struct RunParams {
    /// Mass ratio of the binary (puncture initial data).
    pub q: f64,
    /// Coordinate separation.
    pub separation: f64,
    /// Domain half-width.
    pub domain_half: f64,
    pub base_level: u8,
    pub finest_level: u8,
    pub steps: usize,
    pub extract_every: usize,
    pub extract_radius: f64,
    pub config: SolverConfig,
    /// Run under the fault-tolerant supervisor (`"supervised": true`).
    pub supervised: bool,
    /// Supervisor settings (health cadence, checkpoints, degradation).
    pub supervisor: SupervisorConfig,
    /// Simulated ranks for a distributed run (`"ranks"`; 1 = single-rank).
    pub ranks: usize,
    /// Reliable-delivery retransmit budget (`"comm.max_retransmits"`).
    pub max_retransmits: u32,
    /// Liveness-poll cadence in milliseconds (`"comm.heartbeat_interval"`).
    pub heartbeat_interval_ms: f64,
    /// Receive deadline in milliseconds (`"comm.recv_timeout"`).
    pub recv_timeout_ms: f64,
    /// Overlap interior RHS compute with the halo exchange
    /// (`"comm.overlap"`); bit-identical to the blocking schedule.
    pub overlap: bool,
    /// Coordinated multi-rank snapshots (`"checkpoint.distributed"`);
    /// shards + manifest go under the supervisor's `checkpoint_dir`.
    pub checkpoint_distributed: bool,
    /// Observability trace sink (`"obs.profile"`): write a Chrome-trace
    /// JSON profile of the run to this path. `None` (the default) leaves
    /// instrumentation disabled. The `--profile <path>` CLI flag
    /// overrides this key.
    pub profile: Option<String>,
}

impl Default for RunParams {
    fn default() -> Self {
        Self {
            q: 1.0,
            separation: 6.0,
            domain_half: 16.0,
            base_level: 2,
            finest_level: 5,
            steps: 8,
            extract_every: 2,
            extract_radius: 8.0,
            config: SolverConfig::default(),
            supervised: false,
            supervisor: SupervisorConfig::default(),
            ranks: 1,
            max_retransmits: 8,
            heartbeat_interval_ms: 50.0,
            recv_timeout_ms: 10_000.0,
            overlap: false,
            checkpoint_distributed: false,
            profile: None,
        }
    }
}

impl RunParams {
    /// Parse a par file's text: a JSON object of the keys below. A
    /// malformed document, a duplicate or unknown key, or a value of the
    /// wrong type or range is an error naming the key.
    pub fn from_json(text: &str) -> Result<RunParams, ParamError> {
        let doc = gw_obs::json::parse(text).map_err(ParamError::Parse)?;
        let f = ParFile::new(&doc)?;
        let mut p = RunParams::default();
        p.q = f.num("q", p.q)?;
        p.separation = f.num("separation", p.separation)?;
        p.domain_half = f.num("domain_half", p.domain_half)?;
        p.base_level = f.count("base_level", p.base_level)?;
        p.finest_level = f.count("finest_level", p.finest_level)?;
        p.steps = f.count("steps", p.steps)?;
        p.extract_every = f.count("extract_every", p.extract_every)?;
        p.extract_radius = f.num("extract_radius", p.extract_radius)?;
        let mut bssn = BssnParams::default();
        bssn.eta = f.num("eta", bssn.eta)?;
        bssn.ko_sigma = f.num("ko_sigma", bssn.ko_sigma)?;
        bssn.chi_floor = f.num("chi_floor", bssn.chi_floor)?;
        p.config.params = bssn;
        p.config.courant = f.num("courant", p.config.courant)?;
        p.config.threads = f.count("threads", p.config.threads)?;
        p.config.extract_every = p.extract_every;
        p.config.use_gpu = f.flag("use_gpu", p.config.use_gpu)?;
        if let Some(r) = f.string("rhs")? {
            p.config.rhs_kind = match r {
                "pointwise" => RhsKind::Pointwise,
                "sympygr" => RhsKind::Generated(ScheduleStrategy::CseTopo),
                "binary-reduce" => RhsKind::Generated(ScheduleStrategy::BinaryReduce),
                "staged" | "staged+cse" => RhsKind::Generated(ScheduleStrategy::StagedCse),
                other => return Err(ParamError::Invalid(format!("unknown rhs kind '{other}'"))),
            };
        }
        p.supervised = f.flag("supervised", p.supervised)?;
        let sup = &mut p.supervisor;
        sup.check_every = f.count("check_every", sup.check_every)?;
        sup.checkpoint_every = f.count("checkpoint_every", sup.checkpoint_every)?;
        sup.keep_checkpoints = f.count("keep_checkpoints", sup.keep_checkpoints)?;
        if let Some(d) = f.string("checkpoint_dir")? {
            sup.checkpoint_dir = Some(d.to_string());
        }
        sup.thresholds.hamiltonian_max =
            f.num("hamiltonian_max", sup.thresholds.hamiltonian_max)?;
        // Puncture runs legitimately let chi dip slightly negative (the
        // RHS applies chi_floor pointwise); par files can widen the band.
        sup.thresholds.chi_min = f.num("chi_min", sup.thresholds.chi_min)?;
        sup.thresholds.alpha_min = f.num("alpha_min", sup.thresholds.alpha_min)?;
        sup.degradation.max_retries = f.count("max_retries", sup.degradation.max_retries)?;
        sup.degradation.courant_factor =
            f.num("retry_courant_factor", sup.degradation.courant_factor)?;
        sup.degradation.ko_boost = f.num("retry_ko_boost", sup.degradation.ko_boost)?;
        p.ranks = f.count("ranks", p.ranks)?;
        p.max_retransmits = f.count("comm.max_retransmits", p.max_retransmits)?;
        p.heartbeat_interval_ms = f.num("comm.heartbeat_interval", p.heartbeat_interval_ms)?;
        p.recv_timeout_ms = f.num("comm.recv_timeout", p.recv_timeout_ms)?;
        p.overlap = f.flag("comm.overlap", p.overlap)?;
        p.checkpoint_distributed = f.flag("checkpoint.distributed", p.checkpoint_distributed)?;
        p.profile = f.string("obs.profile")?.map(str::to_string);
        f.finish()?;
        p.validate()?;
        Ok(p)
    }

    /// The comm-layer configuration these parameters describe. The
    /// overlapped path sizes its worker pool from the solver's
    /// `threads` so both drivers see one thread setting.
    pub fn world_config(&self) -> gw_comm::world::WorldConfig {
        gw_comm::world::WorldConfig {
            max_retransmits: self.max_retransmits,
            heartbeat_interval: std::time::Duration::from_secs_f64(
                self.heartbeat_interval_ms / 1e3,
            ),
            recv_timeout: std::time::Duration::from_secs_f64(self.recv_timeout_ms / 1e3),
            overlap: self.overlap,
            overlap_threads: self.config.threads,
            ..gw_comm::world::WorldConfig::default()
        }
    }

    /// Reject parameter combinations that cannot run: levels out of
    /// range, non-positive geometry, extraction sphere outside the
    /// domain, or an invalid [`SolverConfig`].
    pub fn validate(&self) -> Result<(), ParamError> {
        let invalid = |msg: String| Err(ParamError::Invalid(msg));
        if !(self.q > 0.0 && self.q.is_finite()) {
            return invalid(format!("mass ratio q must be positive and finite, got {}", self.q));
        }
        if !(self.separation > 0.0 && self.separation.is_finite()) {
            return invalid(format!("separation must be positive, got {}", self.separation));
        }
        if !(self.domain_half > 0.0 && self.domain_half.is_finite()) {
            return invalid(format!("domain_half must be positive, got {}", self.domain_half));
        }
        if self.base_level > self.finest_level {
            return invalid(format!(
                "base_level ({}) must not exceed finest_level ({})",
                self.base_level, self.finest_level
            ));
        }
        if self.finest_level as u32 > gw_octree::MAX_LEVEL as u32 {
            return invalid(format!(
                "finest_level ({}) exceeds the octree MAX_LEVEL ({})",
                self.finest_level,
                gw_octree::MAX_LEVEL
            ));
        }
        if !(self.extract_radius > 0.0 && self.extract_radius < self.domain_half) {
            return invalid(format!(
                "extract_radius ({}) must lie strictly inside the domain (half-width {})",
                self.extract_radius, self.domain_half
            ));
        }
        if self.supervisor.check_every == 0 {
            return invalid("check_every must be >= 1 (steps between health checks)".into());
        }
        let d = &self.supervisor.degradation;
        if !(d.courant_factor > 0.0 && d.courant_factor <= 1.0) {
            return invalid(format!(
                "retry_courant_factor must be in (0, 1], got {}",
                d.courant_factor
            ));
        }
        if !d.ko_boost.is_finite() || d.ko_boost < 0.0 {
            return invalid(format!("retry_ko_boost must be finite and >= 0, got {}", d.ko_boost));
        }
        let t = &self.supervisor.thresholds;
        if !t.chi_min.is_finite() || !t.alpha_min.is_finite() {
            return invalid(format!(
                "chi_min / alpha_min must be finite, got {} / {}",
                t.chi_min, t.alpha_min
            ));
        }
        if self.supervisor.thresholds.hamiltonian_max <= 0.0
            || self.supervisor.thresholds.hamiltonian_max.is_nan()
        {
            return invalid(format!(
                "hamiltonian_max must be positive, got {}",
                self.supervisor.thresholds.hamiltonian_max
            ));
        }
        if self.ranks == 0 {
            return invalid("ranks must be >= 1".into());
        }
        if !(self.heartbeat_interval_ms > 0.0 && self.heartbeat_interval_ms.is_finite()) {
            return invalid(format!(
                "comm.heartbeat_interval must be positive milliseconds, got {}",
                self.heartbeat_interval_ms
            ));
        }
        if !(self.recv_timeout_ms > 0.0 && self.recv_timeout_ms.is_finite()) {
            return invalid(format!(
                "comm.recv_timeout must be positive milliseconds, got {}",
                self.recv_timeout_ms
            ));
        }
        if self.checkpoint_distributed && self.supervisor.checkpoint_dir.is_none() {
            return invalid(
                "checkpoint.distributed requires checkpoint_dir (the snapshot root)".into(),
            );
        }
        self.config.validate()?;
        Ok(())
    }

    /// Load from a file path.
    pub fn from_file(path: &str) -> Result<RunParams, ParamError> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| ParamError::Io { path: path.to_string(), error: e.to_string() })?;
        Self::from_json(&text)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn run_params_from_json() {
        let p = RunParams::from_json(
            r#"{
                "q": 4.0,
                "separation": 8.0,
                "domain_half": 32.0,
                "finest_level": 6,
                "eta": 1.5,
                "ko_sigma": 0.3,
                "courant": 0.2,
                "use_gpu": true,
                "rhs": "binary-reduce",
                "threads": 4,
                "steps": 4
            }"#,
        )
        .unwrap();
        assert_eq!(p.q, 4.0);
        assert_eq!(p.separation, 8.0);
        assert_eq!(p.finest_level, 6);
        assert!(p.config.use_gpu);
        assert_eq!(p.config.courant, 0.2);
        assert_eq!(p.config.threads, 4);
        assert_eq!(p.config.params.eta, 1.5);
        assert_eq!(p.steps, 4);
        assert!(matches!(p.config.rhs_kind, RhsKind::Generated(ScheduleStrategy::BinaryReduce)));
    }

    #[test]
    fn parses_flat_json() {
        // One number, bool, string and count each, spaced and compact;
        // whole-valued floats are counts too.
        for json in [
            r#"{ "q": 2.0, "use_gpu": true, "rhs": "staged", "steps": 16 }"#,
            r#"{"q":2.0,"use_gpu":true,"rhs":"staged","steps":16.0}"#,
        ] {
            let p = RunParams::from_json(json).unwrap();
            assert_eq!(p.q, 2.0);
            assert!(p.config.use_gpu);
            assert!(matches!(p.config.rhs_kind, RhsKind::Generated(ScheduleStrategy::StagedCse)));
            assert_eq!(p.steps, 16);
        }
    }

    #[test]
    fn shipped_par_files_load() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../pars");
        let mut n = 0;
        for entry in std::fs::read_dir(dir).unwrap() {
            let path = entry.unwrap().path();
            if path.to_string_lossy().ends_with(".par.json") {
                let p = path.to_str().unwrap();
                RunParams::from_file(p).unwrap_or_else(|e| panic!("{p}: {e}"));
                n += 1;
            }
        }
        assert!(n >= 6, "found only {n} par files in {dir}");
    }

    #[test]
    fn rejects_misspelt_mistyped_and_out_of_range_keys() {
        // Each of these used to load silently with a wrong value; each
        // must now be an error naming the key.
        let cases = [
            (r#"{ "courrant": 0.5 }"#, "courrant"),
            (r#"{ "use_gpu": "yes" }"#, "use_gpu"),
            (r#"{ "supervised": 1 }"#, "supervised"),
            (r#"{ "checkpoint_dir": 5 }"#, "checkpoint_dir"),
            (r#"{ "steps": -1 }"#, "steps"),
            (r#"{ "base_level": -3 }"#, "base_level"),
            (r#"{ "ranks": 2.5 }"#, "ranks"),
            (r#"{ "steps": 4 5 }"#, "steps"),
            (r#"{ "steps": 4, "steps": 5 }"#, "steps"),
            (r#"{ "finest_level": 300 }"#, "finest_level"),
        ];
        for (json, key) in cases {
            match RunParams::from_json(json) {
                Err(e) => {
                    let msg = e.to_string();
                    assert!(msg.contains(key), "{json}: error '{msg}' does not name '{key}'");
                }
                Ok(_) => panic!("{json}: loaded without error"),
            }
        }
    }

    #[test]
    fn defaults_fill_missing_keys() {
        let p = RunParams::from_json(r#"{ "q": 2.0 }"#).unwrap();
        assert_eq!(p.q, 2.0);
        assert_eq!(p.domain_half, 16.0);
        assert!(!p.config.use_gpu);
        assert_eq!(p.ranks, 1);
        assert_eq!(p.max_retransmits, 8);
        assert!(!p.checkpoint_distributed);
    }

    #[test]
    fn distributed_comm_keys_parse() {
        let p = RunParams::from_json(
            r#"{
                "ranks": 4,
                "comm.max_retransmits": 5,
                "comm.heartbeat_interval": 10.0,
                "comm.recv_timeout": 2000.0,
                "comm.overlap": true,
                "threads": 2,
                "checkpoint.distributed": true,
                "checkpoint_dir": "/tmp/gw_snapshots",
                "checkpoint_every": 2
            }"#,
        )
        .unwrap();
        assert_eq!(p.ranks, 4);
        assert_eq!(p.max_retransmits, 5);
        assert!(p.checkpoint_distributed);
        assert!(p.overlap);
        let wc = p.world_config();
        assert_eq!(wc.max_retransmits, 5);
        assert_eq!(wc.heartbeat_interval, std::time::Duration::from_millis(10));
        assert_eq!(wc.recv_timeout, std::time::Duration::from_secs(2));
        assert!(wc.overlap);
        assert_eq!(wc.overlap_threads, 2, "overlap pool follows the solver thread count");
        assert!(!RunParams::from_json("{}").unwrap().world_config().overlap);
    }

    #[test]
    fn rejects_malformed_input() {
        assert!(RunParams::from_json("not json").is_err());
        assert!(RunParams::from_json(r#"{ "rhs": "quantum" }"#).is_err());
        assert!(RunParams::from_json(r#"{ "q": "abc" }"#).is_err());
    }

    #[test]
    fn rejects_out_of_range_values() {
        // Each error message must name the offending parameter.
        let cases = [
            (r#"{ "courant": 0.0 }"#, "courant"),
            (r#"{ "courant": 1.5 }"#, "courant"),
            (r#"{ "q": -1.0 }"#, "q"),
            (r#"{ "ko_sigma": -0.1 }"#, "ko_sigma"),
            (r#"{ "chi_floor": 0.0 }"#, "chi_floor"),
            (r#"{ "base_level": 7, "finest_level": 3 }"#, "base_level"),
            (r#"{ "extract_radius": 99.0 }"#, "extract_radius"),
            (r#"{ "ranks": 0 }"#, "ranks"),
            (r#"{ "comm.heartbeat_interval": 0.0 }"#, "comm.heartbeat_interval"),
            (r#"{ "comm.recv_timeout": -1.0 }"#, "comm.recv_timeout"),
            (r#"{ "checkpoint.distributed": true }"#, "checkpoint_dir"),
            (r#"{ "threads": 100000 }"#, "threads"),
        ];
        for (json, needle) in cases {
            match RunParams::from_json(json) {
                Err(e) => {
                    let msg = e.to_string();
                    assert!(msg.contains(needle), "{json}: error '{msg}' lacks '{needle}'");
                }
                Ok(_) => panic!("{json}: expected validation error"),
            }
        }
    }

    #[test]
    fn typed_errors_distinguish_failure_classes() {
        assert!(matches!(RunParams::from_json("not json"), Err(ParamError::Parse(_))));
        assert!(matches!(RunParams::from_json(r#"{ "ranks": 0 }"#), Err(ParamError::Invalid(_))));
        assert!(matches!(
            RunParams::from_json(r#"{ "courant": 1.5 }"#),
            Err(ParamError::Config(crate::solver::ConfigError::Courant(_)))
        ));
        assert!(matches!(
            RunParams::from_file("/nonexistent/gw.par.json"),
            Err(ParamError::Io { .. })
        ));
    }

    #[test]
    fn obs_profile_key_parses() {
        let p = RunParams::from_json(r#"{ "obs.profile": "results/trace.json" }"#).unwrap();
        assert_eq!(p.profile.as_deref(), Some("results/trace.json"));
        assert_eq!(RunParams::from_json("{}").unwrap().profile, None);
    }
}
