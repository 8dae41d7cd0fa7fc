//! Seeded inputs of the three workloads: the batch jobs of
//! `predict_full` and `predict_windowed`, and the hb session streams of
//! `hb_online`. Everything here is a pure function of the seed.

use csst_trace::{binary, gen, rapid, text, Trace};

/// The seven predictive analyses, in the order jobs cycle through them.
pub const PREDICTIVE: [&str; 7] = [
    "race",
    "deadlock",
    "membug",
    "uaf",
    "tso",
    "c11",
    "linearizability",
];

/// Distinct inputs per analysis; jobs cycle through them.
const SEEDS_PER_ANALYSIS: u64 = 16;

/// On-disk trace format of a batch job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Format {
    Text,
    Rapid,
}

impl Format {
    pub fn name(self) -> &'static str {
        match self {
            Format::Text => "text",
            Format::Rapid => "rapid",
        }
    }

    pub fn write(self, trace: &Trace) -> String {
        match self {
            Format::Text => text::write(trace),
            Format::Rapid => rapid::write(trace),
        }
    }

    pub fn parse(self, input: &str) -> Trace {
        match self {
            Format::Text => text::parse(input),
            Format::Rapid => rapid::parse(input),
        }
        .expect("generated traces parse")
    }
}

/// One `csst-analyze` invocation: the analysis, its input bytes and
/// the trace those bytes decode to (what the child will see).
pub struct Job {
    pub analysis: &'static str,
    pub format: Format,
    pub window: Option<usize>,
    pub input: String,
    pub trace: Trace,
}

impl Job {
    fn new(analysis: &'static str, format: Format, window: Option<usize>, raw: &Trace) -> Job {
        let input = format.write(raw);
        let trace = format.parse(&input);
        Job {
            analysis,
            format,
            window,
            input,
            trace,
        }
    }

    pub fn events(&self) -> usize {
        self.trace.total_events()
    }
}

/// SplitMix64 step: derives independent sub-seeds from the run seed.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn scaled(n: usize, scale: f64) -> usize {
    ((n as f64 * scale) as usize).max(2)
}

/// A trace of `analysis`'s generator family. `len` is the family's
/// size knob (events per thread, blocks, objects or operations).
fn family(analysis: &str, len: usize, seed: u64) -> Trace {
    match analysis {
        "race" => gen::racy_program(&gen::RacyProgramCfg {
            threads: 8,
            events_per_thread: len,
            shared_frac: 0.15,
            seed,
            ..Default::default()
        }),
        "deadlock" => gen::lock_program(&gen::LockProgramCfg {
            threads: 4,
            blocks_per_thread: len,
            inversion_frac: 0.1,
            seed,
            ..Default::default()
        }),
        "membug" => gen::alloc_program(&gen::AllocProgramCfg {
            threads: 5,
            objects: len,
            seed,
            ..Default::default()
        }),
        "uaf" => gen::alloc_program(&gen::AllocProgramCfg {
            threads: 5,
            objects: len,
            remote_free_frac: 0.6,
            seed,
            ..Default::default()
        }),
        "tso" => gen::tso_history(&gen::TsoCfg {
            threads: 5,
            events_per_thread: len,
            seed,
            ..Default::default()
        }),
        "c11" => gen::c11_program(&gen::C11Cfg {
            threads: 6,
            events_per_thread: len,
            middle_sync_frac: 0.1,
            seed,
            ..Default::default()
        }),
        "linearizability" => gen::object_history(&gen::ObjectHistoryCfg {
            threads: 3,
            ops_per_thread: len,
            violation: true,
            seed,
            ..Default::default()
        }),
        other => unreachable!("no generator family for `{other}`"),
    }
}

/// Per-analysis sizes of a batch workload: the family size knob and the
/// window (if any). Sized so that every analysis takes a similar share
/// of a run on `csst`.
fn sizing(workload: &str, analysis: &str) -> (usize, Option<usize>) {
    match (workload, analysis) {
        ("predict_full", "race") => (500, None),
        ("predict_full", "deadlock") => (40, None),
        ("predict_full", "membug") => (900, None),
        ("predict_full", "uaf") => (4000, None),
        ("predict_full", "tso") => (1600, None),
        ("predict_full", "c11") => (8000, None),
        ("predict_full", "linearizability") => (1000, None),
        ("predict_windowed", "race") => (1150, Some(900)),
        ("predict_windowed", "deadlock") => (130, Some(400)),
        ("predict_windowed", "membug") => (950, Some(2000)),
        ("predict_windowed", "uaf") => (2600, Some(2000)),
        ("predict_windowed", "tso") => (700, Some(1000)),
        ("predict_windowed", "c11") => (6500, Some(4000)),
        ("predict_windowed", "linearizability") => (1900, Some(2000)),
        other => unreachable!("no sizing for {other:?}"),
    }
}

/// RAPID carries only reads, writes, locks, forks and joins (no values,
/// atomics, heap or history events), so windowed jobs use it for the
/// families made of those alone and the native text format otherwise.
fn windowed_format(analysis: &str) -> Format {
    match analysis {
        "race" | "deadlock" => Format::Rapid,
        _ => Format::Text,
    }
}

/// The distinct jobs of a batch workload, in cycling order
/// (analysis-major within each seed round, so consecutive jobs differ),
/// generated on two threads.
pub fn batch_jobs(workload: &str, seed: u64, scale: f64) -> Vec<Job> {
    let specs: Vec<(usize, u64)> = (0..SEEDS_PER_ANALYSIS)
        .flat_map(|copy| (0..PREDICTIVE.len()).map(move |a| (a, copy)))
        .collect();
    let make = |&(a, copy): &(usize, u64)| {
        let analysis = PREDICTIVE[a];
        let (len, window) = sizing(workload, analysis);
        let format = match window {
            Some(_) => windowed_format(analysis),
            None => Format::Text,
        };
        let window = window.map(|w| scaled(w, scale));
        let raw = family(
            analysis,
            scaled(len, scale),
            mix(seed, (a as u64) << 8 | copy),
        );
        Job::new(analysis, format, window, &raw)
    };
    let (left, right) = specs.split_at(specs.len() / 2);
    std::thread::scope(|s| {
        let first = s.spawn(|| left.iter().map(make).collect::<Vec<_>>());
        let second: Vec<Job> = right.iter().map(make).collect();
        let mut jobs = first.join().expect("generator thread");
        jobs.extend(second);
        jobs
    })
}

/// A small job per analysis for the untimed warm-up invocations that
/// `setup_s` measures.
pub fn warmup_jobs(workload: &str, seed: u64) -> Vec<Job> {
    PREDICTIVE
        .iter()
        .enumerate()
        .map(|(a, &analysis)| {
            let (len, window) = sizing(workload, analysis);
            let format = match window {
                Some(_) => windowed_format(analysis),
                None => Format::Text,
            };
            let raw = family(analysis, scaled(len, 0.02), mix(seed, 0xFFFF + a as u64));
            Job::new(analysis, format, window.map(|w| scaled(w, 0.02)), &raw)
        })
        .collect()
}

/// Events per CSTB EVENTS frame (the client library's own chunk size).
const EVENTS_PER_FRAME: usize = 512;
/// Frames per burst; one online query follows every burst.
const FRAMES_PER_BURST: usize = 8;
/// Distinct session streams; sessions cycle through them.
const SESSIONS: u64 = 6;

/// One online query, asked on the prefix sent so far.
pub enum Query {
    Ordered { t1: u32, p1: u32, t2: u32, p2: u32 },
    Races,
}

impl Query {
    pub fn text(&self) -> String {
        match self {
            Query::Ordered { t1, p1, t2, p2 } => format!("ordered {t1} {p1} {t2} {p2}"),
            Query::Races => "races".to_string(),
        }
    }
}

/// One burst: CSTB frames, then the query that follows them.
pub struct Burst {
    pub events: usize,
    pub frames: Vec<Vec<u8>>,
    pub query: Query,
}

/// One `hb_online` session stream.
pub struct Session {
    pub trace: Trace,
    pub bursts: Vec<Burst>,
}

impl Session {
    pub fn events(&self) -> usize {
        self.trace.total_events()
    }
}

/// The distinct session streams of `hb_online`.
pub fn sessions(seed: u64, scale: f64) -> Vec<Session> {
    (0..SESSIONS)
        .map(|s| {
            let trace = gen::racy_program(&gen::RacyProgramCfg {
                threads: 8,
                events_per_thread: scaled(12_500, scale),
                vars: 64,
                locks: 4,
                shared_frac: 0.05,
                seed: mix(seed, 0xAB00 + s),
                ..Default::default()
            });
            let bursts = bursts(&trace, mix(seed, 0xCD00 + s));
            Session { trace, bursts }
        })
        .collect()
}

fn bursts(trace: &Trace, mut rng: u64) -> Vec<Burst> {
    let per_burst = EVENTS_PER_FRAME * FRAMES_PER_BURST;
    let order = trace.order();
    let mut lens = vec![0u32; trace.num_threads()];
    let mut out = Vec::new();
    for (b, chunk) in order.chunks(per_burst).enumerate() {
        let frames = chunk
            .chunks(EVENTS_PER_FRAME)
            .map(|ids| {
                let mut buf = Vec::new();
                for &id in ids {
                    binary::encode_event(id.thread, trace.kind(id), &mut buf);
                }
                buf
            })
            .collect();
        for id in chunk {
            lens[id.thread.index()] = lens[id.thread.index()].max(id.pos + 1);
        }
        let live: Vec<u32> = (0..lens.len() as u32)
            .filter(|&t| lens[t as usize] > 0)
            .collect();
        let query = if b % 2 == 0 && live.len() >= 2 {
            let mut pick = |n: u32| {
                rng = mix(rng, 1);
                (rng % n as u64) as u32
            };
            let i = pick(live.len() as u32);
            let j = (i + 1 + pick(live.len() as u32 - 1)) % live.len() as u32;
            let (t1, t2) = (live[i as usize], live[j as usize]);
            Query::Ordered {
                t1,
                p1: pick(lens[t1 as usize]),
                t2,
                p2: pick(lens[t2 as usize]),
            }
        } else {
            Query::Races
        };
        out.push(Burst {
            events: chunk.len(),
            frames,
            query,
        });
    }
    out
}
