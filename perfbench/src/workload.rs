//! The three workloads: set-up (mounts + preload) and one op at a time,
//! each op checked against the generator's model of names and contents.

use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

use cfs::{Client, Cluster, FileHandle, FileType, InodeId};

use crate::rng::{file_bytes, Rng};
use crate::trace;

const KIB: usize = 1024;
const MIB: usize = 1024 * KIB;

/// The named workloads (later changes refer to them by these names).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    MetaChurn,
    SmallFiles,
    LargeFiles,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::MetaChurn,
        Workload::SmallFiles,
        Workload::LargeFiles,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::MetaChurn => "meta_churn",
            Workload::SmallFiles => "small_files",
            Workload::LargeFiles => "large_files",
        }
    }

    pub fn parse(s: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Ops in one window. Per-op cost grows with what the cluster has
    /// written, so the window is a fixed op count from a fixed set-up
    /// state, never "as many as fit".
    pub fn window_ops(self) -> usize {
        match self {
            Workload::MetaChurn => 486,
            Workload::SmallFiles => SF_GENERATIONS * SF_OPS_PER_GEN,
            Workload::LargeFiles => 1080,
        }
    }

    /// Set up a fresh cluster: mounts and preload. Only the op stream
    /// depends on `seed`; the preload is the same for every seed.
    pub fn setup(self, cluster: &Cluster, seed: u64) -> Result<Box<dyn Load>, String> {
        cluster
            .create_volume("bench", 1, 4)
            .map_err(|e| format!("create_volume: {e}"))?;
        Ok(match self {
            Workload::MetaChurn => Box::new(MetaChurn::setup(cluster, seed)?),
            Workload::SmallFiles => Box::new(SmallFiles::setup(cluster, seed)?),
            Workload::LargeFiles => Box::new(LargeFiles::setup(cluster, seed)?),
        })
    }
}

/// Read-only ops and mutating ops are reported apart. A reclaim pass
/// (small_files' `process_deletions`) is a population of its own: it
/// costs far more than any user op, and pooled with them it would set
/// the write tail by itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    Read,
    Write,
    Reclaim,
}

/// One executed op.
#[derive(Debug)]
pub struct Outcome {
    pub class: Class,
    pub ns: u64,
    /// User bytes read or written.
    pub bytes_read: u64,
    pub bytes_written: u64,
    /// A failed call or a result that disagrees with the model.
    pub error: Option<String>,
}

/// Sizes and totals a workload reports after its window.
#[derive(Debug, Default, Clone)]
pub struct Footprint {
    /// User bytes live in the volume (the model's view).
    pub live_user_bytes: u64,
    /// User bytes of files unlinked during the window.
    pub unlinked_bytes: u64,
}

/// A set-up workload, driven one op at a time.
pub trait Load {
    /// Run op `i` of the window. Generation and checking happen outside
    /// the timed part.
    fn step(&mut self, i: u64) -> Outcome;
    /// After the window: flush what the workload left open and reclaim
    /// unlinked inodes, so fsck sees a quiesced volume. Untimed.
    fn quiesce(&mut self) -> Result<(), String>;
    /// The mount fsck runs on.
    fn client(&self) -> &Client;
    fn footprint(&self) -> Footprint;
}

/// Time `f` as window op `id`; with tracing on it is the op's root span.
fn timed<T>(name: &'static str, id: u64, f: impl FnOnce() -> T) -> (T, u64) {
    let t = Instant::now();
    let out = trace::op(name, id, f);
    (out, t.elapsed().as_nanos() as u64)
}

fn outcome(class: Class, ns: u64, check: Result<(), String>) -> Outcome {
    Outcome {
        class,
        ns,
        bytes_read: 0,
        bytes_written: 0,
        error: check.err(),
    }
}

fn err<E: std::fmt::Display>(what: &str) -> impl Fn(E) -> String + '_ {
    move |e| format!("{what}: {e}")
}

// ---------------------------------------------------------------------
// meta_churn
// ---------------------------------------------------------------------

const MC_DIRS: usize = 8;
const MC_FILES_PER_DIR: usize = 12;
const MC_CHURN_DIRS: usize = 16;
const MC_TREES: usize = 4;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum MetaOp {
    FileStat,
    DirStat,
    ReaddirPlus,
    FileCreate,
    FileRemove,
    DirCreate,
    DirRemove,
    TreeCreate,
    TreeRemove,
}

/// One deck, shuffled per deck: each of mdtest's seven ops once, as the
/// paper's Table 3 and Fig. 6–7 weight them (every op equally), plus one
/// lookup+stat of a file and one `readdir_plus`. Every create is paired
/// with a removal of its kind, so the namespace keeps its size.
const MC_DECK: [MetaOp; 9] = [
    MetaOp::DirCreate,
    MetaOp::DirStat,
    MetaOp::DirRemove,
    MetaOp::FileCreate,
    MetaOp::FileRemove,
    MetaOp::TreeCreate,
    MetaOp::TreeRemove,
    MetaOp::FileStat,
    MetaOp::ReaddirPlus,
];

struct Tree {
    name: String,
    top: InodeId,
    sub: InodeId,
}

/// mdtest-style namespace churn over two mounts of one volume.
pub struct MetaChurn {
    mounts: [Client; 2],
    rng: Rng,
    deck: Vec<MetaOp>,
    next_name: u64,
    /// Preloaded directories and the files each holds (name → inode).
    dirs: Vec<(InodeId, BTreeMap<String, InodeId>)>,
    /// Every file as `(dir index, name)`, for uniform choice.
    files: Vec<(usize, String)>,
    churn_parent: InodeId,
    churn_dirs: Vec<(String, InodeId)>,
    tree_parent: InodeId,
    trees: Vec<Tree>,
}

impl MetaChurn {
    fn setup(cluster: &Cluster, seed: u64) -> Result<MetaChurn, String> {
        let a = cluster.mount("bench").map_err(err("mount"))?;
        let b = cluster.mount("bench").map_err(err("mount"))?;
        let root = a.mkdir(a.root(), "mc").map_err(err("mkdir"))?.id;
        let mut dirs = Vec::new();
        let mut files = Vec::new();
        for d in 0..MC_DIRS {
            let ino = a.mkdir(root, &format!("d{d}")).map_err(err("mkdir"))?.id;
            let mut names = BTreeMap::new();
            for f in 0..MC_FILES_PER_DIR {
                let name = format!("p{f}");
                let file = a.create(ino, &name).map_err(err("create"))?.id;
                names.insert(name.clone(), file);
                files.push((d, name));
            }
            dirs.push((ino, names));
        }
        let churn_parent = a.mkdir(root, "churn").map_err(err("mkdir"))?.id;
        let mut churn_dirs = Vec::new();
        for d in 0..MC_CHURN_DIRS {
            let name = format!("c{d}");
            let ino = a.mkdir(churn_parent, &name).map_err(err("mkdir"))?.id;
            churn_dirs.push((name, ino));
        }
        let tree_parent = a.mkdir(root, "trees").map_err(err("mkdir"))?.id;
        let mut trees = Vec::new();
        for t in 0..MC_TREES {
            trees.push(make_tree(&a, tree_parent, format!("t{t}")).map_err(err("tree"))?);
        }
        Ok(MetaChurn {
            mounts: [a, b],
            rng: Rng::new(seed),
            deck: Vec::new(),
            next_name: 0,
            dirs,
            files,
            churn_parent,
            churn_dirs,
            tree_parent,
            trees,
        })
    }

    /// A name never used before; preloaded names have no dash.
    fn fresh_name(&mut self, prefix: &str) -> String {
        self.next_name += 1;
        format!("{prefix}-{}", self.next_name)
    }

    fn next_op(&mut self) -> MetaOp {
        if self.deck.is_empty() {
            self.deck.extend(MC_DECK);
            self.rng.shuffle(&mut self.deck);
        }
        self.deck.pop().expect("deck refilled above")
    }
}

/// mdtest's unit tree: `name/{a/g, f}`.
fn make_tree(c: &Client, parent: InodeId, name: String) -> cfs::Result<Tree> {
    let top = c.mkdir(parent, &name)?.id;
    let sub = c.mkdir(top, "a")?.id;
    c.create(top, "f")?;
    c.create(sub, "g")?;
    Ok(Tree { name, top, sub })
}

fn remove_tree(c: &Client, parent: InodeId, t: &Tree) -> cfs::Result<()> {
    c.unlink(t.sub, "g")?;
    c.rmdir(t.top, "a")?;
    c.unlink(t.top, "f")?;
    c.rmdir(parent, &t.name)
}

fn expect(cond: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if cond {
        Ok(())
    } else {
        Err(what())
    }
}

impl Load for MetaChurn {
    fn step(&mut self, i: u64) -> Outcome {
        let op = self.next_op();
        let m = i as usize % 2;
        match op {
            MetaOp::FileStat => {
                let (d, name) = self.files[self.rng.below(self.files.len())].clone();
                let (dir, want) = (self.dirs[d].0, self.dirs[d].1[&name]);
                let c = &self.mounts[m];
                let (r, ns) = timed("client.file_stat", i, || {
                    let dent = c.lookup(dir, &name)?;
                    Ok::<_, cfs::CfsError>((dent.inode, c.stat(dent.inode)?))
                });
                let check = r.map_err(err("file stat")).and_then(|(ino, st)| {
                    expect(
                        ino == want && st.file_type == FileType::File && st.size == 0,
                        || {
                            format!(
                                "file stat {name}: got {ino} {:?} size {}",
                                st.file_type, st.size
                            )
                        },
                    )
                });
                outcome(Class::Read, ns, check)
            }
            MetaOp::DirStat => {
                let (name, want) = self.churn_dirs[self.rng.below(self.churn_dirs.len())].clone();
                let (parent, c) = (self.churn_parent, &self.mounts[m]);
                let (r, ns) = timed("client.dir_stat", i, || {
                    let dent = c.lookup(parent, &name)?;
                    Ok::<_, cfs::CfsError>((dent.inode, c.stat(dent.inode)?))
                });
                let check = r.map_err(err("dir stat")).and_then(|(ino, st)| {
                    expect(ino == want && st.file_type == FileType::Dir, || {
                        format!("dir stat {name}: got {ino} {:?}", st.file_type)
                    })
                });
                outcome(Class::Read, ns, check)
            }
            MetaOp::ReaddirPlus => {
                let d = self.rng.below(self.dirs.len());
                let (dir, want) = (&self.dirs[d].0, &self.dirs[d].1);
                let c = &self.mounts[m];
                let (r, ns) = timed("client.readdir_plus", i, || c.readdir_plus(*dir));
                let check = r.map_err(err("readdir_plus")).and_then(|entries| {
                    let got: BTreeMap<String, InodeId> = entries
                        .iter()
                        .filter(|(_, ino)| ino.file_type == FileType::File)
                        .map(|(dent, ino)| (dent.name.clone(), ino.id))
                        .collect();
                    expect(got == *want && entries.len() == want.len(), || {
                        format!(
                            "readdir_plus d{d}: {} entries, want {}",
                            entries.len(),
                            want.len()
                        )
                    })
                });
                outcome(Class::Read, ns, check)
            }
            MetaOp::FileCreate => {
                let d = self.rng.below(self.dirs.len());
                let name = self.fresh_name("f");
                let (dir, c) = (self.dirs[d].0, &self.mounts[m]);
                let (r, ns) = timed("client.file_create", i, || c.create(dir, &name));
                let check = r.map_err(err("create")).map(|ino| {
                    self.dirs[d].1.insert(name.clone(), ino.id);
                    self.files.push((d, name));
                });
                outcome(Class::Write, ns, check)
            }
            MetaOp::FileRemove => {
                let (d, name) = self.files.swap_remove(self.rng.below(self.files.len()));
                self.dirs[d].1.remove(&name);
                let (dir, c) = (self.dirs[d].0, &self.mounts[m]);
                let (r, ns) = timed("client.file_remove", i, || c.unlink(dir, &name));
                outcome(Class::Write, ns, r.map_err(err("unlink")))
            }
            MetaOp::DirCreate => {
                let name = self.fresh_name("c");
                let (parent, c) = (self.churn_parent, &self.mounts[m]);
                let (r, ns) = timed("client.dir_create", i, || c.mkdir(parent, &name));
                let check = r
                    .map_err(err("mkdir"))
                    .map(|ino| self.churn_dirs.push((name, ino.id)));
                outcome(Class::Write, ns, check)
            }
            MetaOp::DirRemove => {
                let (name, _) = self
                    .churn_dirs
                    .swap_remove(self.rng.below(self.churn_dirs.len()));
                let (parent, c) = (self.churn_parent, &self.mounts[m]);
                let (r, ns) = timed("client.dir_remove", i, || c.rmdir(parent, &name));
                outcome(Class::Write, ns, r.map_err(err("rmdir")))
            }
            MetaOp::TreeCreate => {
                let name = self.fresh_name("t");
                let (parent, c) = (self.tree_parent, &self.mounts[m]);
                let (r, ns) = timed("client.tree_create", i, || make_tree(c, parent, name));
                let check = r.map_err(err("tree create")).map(|t| self.trees.push(t));
                outcome(Class::Write, ns, check)
            }
            MetaOp::TreeRemove => {
                let t = self.trees.swap_remove(self.rng.below(self.trees.len()));
                let (parent, c) = (self.tree_parent, &self.mounts[m]);
                let (r, ns) = timed("client.tree_remove", i, || remove_tree(c, parent, &t));
                outcome(Class::Write, ns, r.map_err(err("tree remove")))
            }
        }
    }

    fn quiesce(&mut self) -> Result<(), String> {
        for c in &self.mounts {
            c.process_deletions();
        }
        Ok(())
    }

    fn client(&self) -> &Client {
        &self.mounts[0]
    }

    fn footprint(&self) -> Footprint {
        Footprint::default()
    }
}

// ---------------------------------------------------------------------
// small_files
// ---------------------------------------------------------------------

/// Files written per generation (one image layer).
const SF_FILES_PER_GEN: usize = 32;
const SF_GENERATIONS: usize = 6;
/// Creates, read-backs, unlinks of half the previous generation, and one
/// reclaim pass.
const SF_OPS_PER_GEN: usize = SF_FILES_PER_GEN * 2 + SF_FILES_PER_GEN / 2 + 1;
/// File sizes, dealt evenly: the paper's Fig. 10 points, 1–128 KiB
/// log-spaced. The small-file threshold (128 KiB) is inclusive, so every
/// one takes the `write_small` path.
const SF_SIZES: [usize; 8] = [
    KIB,
    2 * KIB,
    4 * KIB,
    8 * KIB,
    16 * KIB,
    32 * KIB,
    64 * KIB,
    128 * KIB,
];

#[derive(Debug, Clone)]
struct SmallFile {
    id: u64,
    size: usize,
}

#[derive(Debug, Clone)]
enum SmallOp {
    Create(SmallFile),
    Read,
    Unlink,
    Reclaim,
}

/// Container-image layer churn: generations of small files written,
/// read back whole, half-unlinked and reclaimed.
pub struct SmallFiles {
    client: Client,
    dir: InodeId,
    rng: Rng,
    next_id: u64,
    queue: VecDeque<SmallOp>,
    /// Live files by id (name is `s{id}`).
    live: BTreeMap<u64, usize>,
    /// The generation being written, and the one before it.
    current: Vec<u64>,
    previous: Vec<u64>,
    unlinked_bytes: u64,
    /// Files unlinked since the last reclaim pass, which must reclaim
    /// exactly these.
    unreclaimed: usize,
}

impl SmallFiles {
    fn setup(cluster: &Cluster, seed: u64) -> Result<SmallFiles, String> {
        let client = cluster.mount("bench").map_err(err("mount"))?;
        let dir = client.mkdir(client.root(), "sf").map_err(err("mkdir"))?.id;
        let mut s = SmallFiles {
            client,
            dir,
            rng: Rng::new(0),
            next_id: 0,
            queue: VecDeque::new(),
            live: BTreeMap::new(),
            current: Vec::new(),
            previous: Vec::new(),
            unlinked_bytes: 0,
            unreclaimed: 0,
        };
        // Generation 0 comes from a fixed seed, so set-up is the same for
        // every workload seed.
        for f in s.generation() {
            s.create(&f).map_err(err("preload"))?;
        }
        s.rng = Rng::new(seed);
        Ok(s)
    }

    /// One generation's files: as many of each `SF_SIZES` size, in a
    /// seeded order, so every generation writes the same bytes whatever
    /// the seed.
    fn generation(&mut self) -> Vec<SmallFile> {
        let mut files: Vec<SmallFile> = (0..SF_FILES_PER_GEN)
            .map(|k| {
                self.next_id += 1;
                SmallFile {
                    id: self.next_id,
                    size: SF_SIZES[k % SF_SIZES.len()],
                }
            })
            .collect();
        self.rng.shuffle(&mut files);
        files
    }

    fn create(&mut self, f: &SmallFile) -> cfs::Result<()> {
        let data = file_bytes(f.id, f.size);
        create_small(&self.client, self.dir, f.id, &data)?;
        self.live.insert(f.id, f.size);
        self.current.push(f.id);
        Ok(())
    }

    fn refill(&mut self) {
        self.previous = std::mem::take(&mut self.current);
        let files = self.generation();
        self.queue.extend(files.into_iter().map(SmallOp::Create));
        self.queue
            .extend(std::iter::repeat_n(SmallOp::Read, SF_FILES_PER_GEN));
        self.queue
            .extend(std::iter::repeat_n(SmallOp::Unlink, SF_FILES_PER_GEN / 2));
        self.queue.push_back(SmallOp::Reclaim);
    }
}

/// A `process_deletions` pass must reclaim every file unlinked since the
/// last one (`want`) and run data-side deletions for them, which punch
/// their extents.
fn check_reclaim((reclaimed, executed): (usize, usize), want: usize) -> Result<(), String> {
    expect(reclaimed == want && (want == 0 || executed > 0), || {
        format!("reclaim: {reclaimed} of {want} unlinked inodes, {executed} data tasks")
    })
}

// `SF_FILES_PER_GEN` deals every size equally.
const _: () = assert!(SF_FILES_PER_GEN.is_multiple_of(SF_SIZES.len()));

fn create_small(c: &Client, dir: InodeId, id: u64, data: &[u8]) -> cfs::Result<()> {
    let ino = c.create(dir, &format!("s{id}"))?;
    let mut fh = c.open_inode(ino.id)?;
    c.write(&mut fh, data)?;
    c.close(&mut fh)
}

impl Load for SmallFiles {
    fn step(&mut self, i: u64) -> Outcome {
        if self.queue.is_empty() {
            self.refill();
        }
        let (c, dir) = (&self.client, self.dir);
        match self.queue.pop_front().expect("queue refilled above") {
            SmallOp::Create(f) => {
                let data = file_bytes(f.id, f.size);
                let (r, ns) = timed("client.small_create", i, || {
                    create_small(c, dir, f.id, &data)
                });
                let check = r.map_err(err("small create")).map(|()| {
                    self.live.insert(f.id, f.size);
                    self.current.push(f.id);
                });
                Outcome {
                    bytes_written: f.size as u64,
                    ..outcome(Class::Write, ns, check)
                }
            }
            SmallOp::Read => {
                let ids: Vec<u64> = self.live.keys().copied().collect();
                let id = ids[self.rng.below(ids.len())];
                let size = self.live[&id];
                let (r, ns) = timed("client.small_read", i, || {
                    let mut fh = c.open(dir, &format!("s{id}"))?;
                    Ok::<_, cfs::CfsError>((fh.size(), c.read(&mut fh, size)?))
                });
                let check = r.map_err(err("small read")).and_then(|(st, data)| {
                    expect(st == size as u64 && data == file_bytes(id, size), || {
                        format!(
                            "small read s{id}: size {st}/{size}, {} bytes differ",
                            data.len()
                        )
                    })
                });
                Outcome {
                    bytes_read: size as u64,
                    ..outcome(Class::Read, ns, check)
                }
            }
            SmallOp::Unlink => {
                let id = self
                    .previous
                    .swap_remove(self.rng.below(self.previous.len()));
                let size = self.live.remove(&id).expect("previous generation is live");
                self.unlinked_bytes += size as u64;
                let (r, ns) = timed("client.small_unlink", i, || {
                    c.unlink(dir, &format!("s{id}"))
                });
                if r.is_ok() {
                    self.unreclaimed += 1;
                }
                outcome(Class::Write, ns, r.map_err(err("unlink")))
            }
            SmallOp::Reclaim => {
                let want = std::mem::take(&mut self.unreclaimed);
                let (r, ns) = timed("client.reclaim", i, || c.process_deletions());
                outcome(Class::Reclaim, ns, check_reclaim(r, want))
            }
        }
    }

    fn quiesce(&mut self) -> Result<(), String> {
        let want = std::mem::take(&mut self.unreclaimed);
        check_reclaim(self.client.process_deletions(), want)
    }

    fn client(&self) -> &Client {
        &self.client
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            live_user_bytes: self.live.values().map(|&s| s as u64).sum(),
            unlinked_bytes: self.unlinked_bytes,
        }
    }
}

// ---------------------------------------------------------------------
// large_files
// ---------------------------------------------------------------------

const LF_FILES: usize = 6;
const LF_FILE_SIZE: usize = 8 * MIB;
/// Preload write size (split into packets by the client).
const LF_CHUNK: usize = 4 * MIB;
const LF_IO: usize = 4 * KIB;
const LF_APPEND: usize = 128 * KIB;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum LargeOp {
    Read,
    Overwrite,
    Append,
}

/// One deck of ops, shuffled per deck: reads, overwrites and appends
/// 4:3:2. With equal thirds, half of all writes would be sub-millisecond
/// overwrites and half multi-millisecond appends, and the write median
/// would fall in the gap between the two, jumping between them from run
/// to run; at 3:2 it sits inside the overwrites. Fewer appends also fit
/// more ops, and so more samples per tail, into a run.
const LF_DECK: [(LargeOp, usize); 3] = [
    (LargeOp::Read, 8),
    (LargeOp::Overwrite, 6),
    (LargeOp::Append, 4),
];

/// fio-style random 4 KiB reads and overwrites plus 128 KiB appends over
/// files that do not fit the mount's read cache.
pub struct LargeFiles {
    client: Client,
    rng: Rng,
    deck: Vec<LargeOp>,
    /// Open handle and expected contents per file.
    files: Vec<(FileHandle, Vec<u8>)>,
}

/// Bytes large_files preloads (printed next to the read-cache size).
pub const LF_PRELOAD_BYTES: u64 = (LF_FILES * LF_FILE_SIZE) as u64;

impl LargeFiles {
    fn setup(cluster: &Cluster, seed: u64) -> Result<LargeFiles, String> {
        let client = cluster.mount("bench").map_err(err("mount"))?;
        let dir = client.mkdir(client.root(), "lf").map_err(err("mkdir"))?.id;
        let mut files = Vec::new();
        for f in 0..LF_FILES {
            let data = file_bytes(1_000_000 + f as u64, LF_FILE_SIZE);
            let ino = client
                .create(dir, &format!("big{f}"))
                .map_err(err("create"))?;
            let mut fh = client.open_inode(ino.id).map_err(err("open"))?;
            for chunk in data.chunks(LF_CHUNK) {
                client.write(&mut fh, chunk).map_err(err("preload"))?;
            }
            client.close(&mut fh).map_err(err("close"))?;
            files.push((fh, data));
        }
        Ok(LargeFiles {
            client,
            rng: Rng::new(seed),
            deck: Vec::new(),
            files,
        })
    }
}

impl Load for LargeFiles {
    fn step(&mut self, i: u64) -> Outcome {
        if self.deck.is_empty() {
            for (op, n) in LF_DECK {
                self.deck.extend(std::iter::repeat_n(op, n));
            }
            self.rng.shuffle(&mut self.deck);
        }
        let op = self.deck.pop().expect("deck refilled above");
        let f = self.rng.below(self.files.len());
        let blocks = self.files[f].1.len() / LF_IO;
        let off = self.rng.below(blocks) * LF_IO;
        let c = &self.client;
        let (fh, model) = &mut self.files[f];
        match op {
            LargeOp::Read => {
                let (r, ns) = timed("client.read_4k", i, || c.read_at(fh, off as u64, LF_IO));
                let check = r.map_err(err("read")).and_then(|data| {
                    expect(data == model[off..off + LF_IO], || {
                        format!("read big{f}@{off}: {} bytes, contents differ", data.len())
                    })
                });
                Outcome {
                    bytes_read: LF_IO as u64,
                    ..outcome(Class::Read, ns, check)
                }
            }
            LargeOp::Overwrite => {
                let data = self.rng.bytes(LF_IO);
                let (r, ns) = timed("client.overwrite_4k", i, || {
                    c.write_at(fh, off as u64, &data)
                });
                model[off..off + LF_IO].copy_from_slice(&data);
                Outcome {
                    bytes_written: LF_IO as u64,
                    ..outcome(Class::Write, ns, r.map(drop).map_err(err("overwrite")))
                }
            }
            LargeOp::Append => {
                let data = self.rng.bytes(LF_APPEND);
                let end = model.len() as u64;
                let (r, ns) = timed("client.append_128k", i, || c.write_at(fh, end, &data));
                model.extend_from_slice(&data);
                Outcome {
                    bytes_written: LF_APPEND as u64,
                    ..outcome(Class::Write, ns, r.map(drop).map_err(err("append")))
                }
            }
        }
    }

    fn quiesce(&mut self) -> Result<(), String> {
        for (f, (fh, model)) in self.files.iter_mut().enumerate() {
            self.client.close(fh).map_err(err("close"))?;
            let st = self.client.stat(fh.ino()).map_err(err("stat"))?;
            expect(st.size == model.len() as u64, || {
                format!("stat big{f}: size {} want {}", st.size, model.len())
            })?;
        }
        Ok(())
    }

    fn client(&self) -> &Client {
        &self.client
    }

    fn footprint(&self) -> Footprint {
        Footprint {
            live_user_bytes: self.files.iter().map(|(_, m)| m.len() as u64).sum(),
            unlinked_bytes: 0,
        }
    }
}
