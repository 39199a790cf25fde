//! The front-end's admission core: what an IO thread does with one
//! connection's decoded requests, with no socket, thread or clock.
//!
//! [`Front::step`] routes each IO request to its shard and batches it
//! in wire order. A batch is submitted at [`BATCH_LIMIT`], before a
//! STATS or SHUTDOWN step and when the input runs dry, through one
//! reservation: the granted prefix goes to the shard, the rest is
//! answered `BUSY` with the queue depth (0 once the shard is closed).
//! So every IO request is answered exactly once; a poisoned stream
//! drops what it never submitted. The server backs [`Admission`] with
//! its [`queue`](crate::queue)s, the table test with a model queue.

use pc_units::{BlockNo, DiskId};

use crate::protocol::{self, valid_data_request, ProtoError, Request, Response};
use crate::queue::{QueueSender, TryPushError};
use crate::shard::shard_of;

/// Submit a connection's pending batch to its shard once it holds this
/// many requests, even if more input is buffered.
pub(crate) const BATCH_LIMIT: usize = 1024;

/// One request routed to a shard.
pub(crate) struct IoReq {
    pub(crate) seq: u32,
    pub(crate) at_us: u64,
    pub(crate) disk: u32,
    pub(crate) block: u64,
    pub(crate) blocks: u64,
    pub(crate) write: bool,
    /// The `WRITE_DATA` payload, empty for `READ_DATA` (whose *reply*
    /// carries the bytes); `None` for a metadata-only request.
    pub(crate) payload: Option<Vec<u8>>,
}

/// The shards as the core sees them: one bounded admission lane each.
pub(crate) trait Admission {
    /// Grants up to `want` requests of room on `shard`, as
    /// [`QueueSender::try_reserve`](crate::queue::QueueSender::try_reserve).
    fn reserve(&mut self, shard: usize, want: usize) -> Result<usize, TryPushError>;
    /// Submits a batch whose whole length was just granted.
    fn push(&mut self, shard: usize, batch: Vec<IoReq>);
    /// `shard`'s queue depth in requests.
    fn depth(&self, shard: usize) -> usize;
}

/// The server's lanes: its shard queues, and a function that wraps a
/// granted batch into the queues' message.
impl<T, F: FnMut(Vec<IoReq>) -> T> Admission for (&[QueueSender<T>], F) {
    fn reserve(&mut self, shard: usize, want: usize) -> Result<usize, TryPushError> {
        self.0[shard].try_reserve(want)
    }

    fn push(&mut self, shard: usize, batch: Vec<IoReq>) {
        let weight = batch.len();
        self.0[shard].push_reserved((self.1)(batch), weight);
    }

    fn depth(&self, shard: usize) -> usize {
        self.0[shard].depth()
    }
}

/// Where [`Front::step`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Step {
    /// The input ran dry and every batch is submitted.
    Drained,
    /// A STATS request, all IO before it submitted; the caller answers.
    Stats { seq: u32 },
    /// A SHUTDOWN request, all IO before it submitted and its ack in `out`.
    Shutdown { seq: u32 },
    /// A frame failed to decode or broke the data-request size contract:
    /// what was not yet submitted is dropped, and the connection closes.
    Poisoned,
}

/// One IO thread's admission core.
pub(crate) struct Front {
    block_bytes: usize,
    /// Per-shard pending batches; empty between steps.
    batches: Vec<Vec<IoReq>>,
    /// `BUSY` answers per shard since the caller last took them.
    pub(crate) busy: Vec<u64>,
}

impl Front {
    /// A core over `shards` shards with `block_bytes`-byte data blocks.
    pub(crate) fn new(shards: usize, block_bytes: usize) -> Self {
        Front {
            block_bytes,
            batches: (0..shards).map(|_| Vec::new()).collect(),
            busy: vec![0; shards],
        }
    }

    /// Takes requests from `next` until a step the caller must act on.
    /// IO requests are stamped `at_us` and admitted through `shards`;
    /// their `BUSY` frames, and a SHUTDOWN ack, are appended to `out`.
    pub(crate) fn step<A: Admission>(
        &mut self,
        mut next: impl FnMut() -> Result<Option<Request>, ProtoError>,
        at_us: u64,
        shards: &mut A,
        out: &mut Vec<u8>,
    ) -> Step {
        let step = loop {
            let (seq, write, disk, block, blocks, payload) = match next() {
                Ok(None) => break Step::Drained,
                Ok(Some(Request::Stats { seq })) => break Step::Stats { seq },
                Ok(Some(Request::Shutdown { seq })) => break Step::Shutdown { seq },
                Ok(Some(Request::Io {
                    seq,
                    write,
                    disk,
                    block,
                    blocks,
                })) => (seq, write, disk, block, blocks, None),
                Ok(Some(Request::IoData {
                    seq,
                    write,
                    disk,
                    block,
                    blocks,
                    payload,
                })) if valid_data_request(write, blocks, &payload, self.block_bytes) => {
                    (seq, write, disk, block, blocks, Some(payload))
                }
                Ok(Some(Request::IoData { .. })) | Err(_) => {
                    self.batches.iter_mut().for_each(Vec::clear);
                    return Step::Poisoned;
                }
            };
            // The one place the front-end maps a request to a shard.
            let s = shard_of(DiskId::new(disk), BlockNo::new(block), self.batches.len());
            self.batches[s].push(IoReq {
                seq,
                at_us,
                disk,
                block,
                blocks: u64::from(blocks),
                write,
                payload,
            });
            if self.batches[s].len() >= BATCH_LIMIT {
                self.submit(s, shards, out);
            }
        };
        for s in 0..self.batches.len() {
            self.submit(s, shards, out);
        }
        if let Step::Shutdown { seq } = step {
            protocol::encode_response(&Response::Shutdown { seq }, out);
        }
        step
    }

    /// Pushes shard `s`'s pending batch through one reservation: the
    /// granted prefix goes to the shard and the rest is answered `BUSY`
    /// into `out`, exactly once per request, never both.
    fn submit<A: Admission>(&mut self, s: usize, shards: &mut A, out: &mut Vec<u8>) {
        let batch = &mut self.batches[s];
        if batch.is_empty() {
            return;
        }
        let depth = match shards.reserve(s, batch.len()) {
            Ok(granted) => {
                let rejected = batch.split_off(granted);
                shards.push(s, std::mem::replace(batch, rejected));
                if batch.is_empty() {
                    return;
                }
                shards.depth(s)
            }
            Err(TryPushError::Full { depth }) => depth,
            // Mid-shutdown: the shard is gone, but every accepted
            // request still gets exactly one answer.
            Err(TryPushError::Closed) => 0,
        };
        let depth = u32::try_from(depth).unwrap_or(u32::MAX);
        self.busy[s] += batch.len() as u64;
        out.reserve(batch.len() * 13);
        for r in batch.drain(..) {
            protocol::encode_response(&Response::Busy { seq: r.seq, depth }, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::decode_response;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    const BLOCK: usize = 8;
    const ROOMY: usize = 1 << 20;

    /// One input frame; its seq is its index in the input.
    #[derive(Clone, Copy)]
    enum In {
        /// A metadata read routed to this shard.
        Io(usize),
        /// A well-formed `WRITE_DATA` routed to this shard.
        Data(usize),
        Stats,
        Shutdown,
        /// A `WRITE_DATA` whose payload breaks the size contract.
        BadData,
        /// A frame that does not decode.
        Garbage,
    }

    /// A block of disk 0 that [`shard_of`] routes to `shard`.
    fn block_on(shard: usize, shards: usize) -> u64 {
        (0..)
            .find(|&b| shard_of(DiskId::new(0), BlockNo::new(b), shards) == shard)
            .unwrap()
    }

    fn frame(seq: u32, input: In, shards: usize) -> Result<Request, ProtoError> {
        let data = |block, payload| Request::IoData {
            seq,
            write: true,
            disk: 0,
            block,
            blocks: 1,
            payload,
        };
        Ok(match input {
            In::Io(s) => Request::Io {
                seq,
                write: false,
                disk: 0,
                block: block_on(s, shards),
                blocks: 1,
            },
            In::Data(s) => data(block_on(s, shards), vec![7; BLOCK]),
            In::Stats => Request::Stats { seq },
            In::Shutdown => Request::Shutdown { seq },
            In::BadData => data(0, vec![7; BLOCK - 1]),
            In::Garbage => return Err(ProtoError::BadOpcode(0)),
        })
    }

    /// The bounded shard queues as a model: capacity, depth and a closed
    /// flag per shard, plus a log of every pushed batch's seqs. With a
    /// consumer, each reservation first lets the shard pop a random
    /// share of its depth.
    struct Model {
        cap: Vec<usize>,
        depth: Vec<usize>,
        closed: Vec<bool>,
        consumer: Option<StdRng>,
        granted: Option<(usize, usize)>,
        pushed: Vec<(usize, Vec<u32>)>,
    }

    impl Model {
        fn new(cap: Vec<usize>) -> Self {
            Model {
                depth: vec![0; cap.len()],
                closed: vec![false; cap.len()],
                cap,
                consumer: None,
                granted: None,
                pushed: Vec::new(),
            }
        }
    }

    impl Admission for Model {
        fn reserve(&mut self, shard: usize, want: usize) -> Result<usize, TryPushError> {
            assert_eq!(self.granted, None, "a grant was never pushed");
            if let Some(rng) = &mut self.consumer {
                self.depth[shard] -= rng.gen_range(0..=self.depth[shard]);
            }
            if self.closed[shard] {
                return Err(TryPushError::Closed);
            }
            let granted = want.min(self.cap[shard] - self.depth[shard]);
            if granted == 0 {
                return Err(TryPushError::Full {
                    depth: self.depth[shard],
                });
            }
            self.depth[shard] += granted;
            self.granted = Some((shard, granted));
            Ok(granted)
        }

        fn push(&mut self, shard: usize, batch: Vec<IoReq>) {
            assert_eq!(self.granted.take(), Some((shard, batch.len())));
            assert!(batch.iter().all(|r| r.at_us == 7));
            self.pushed
                .push((shard, batch.iter().map(|r| r.seq).collect()));
        }

        fn depth(&self, shard: usize) -> usize {
            self.depth[shard]
        }
    }

    /// What one step did: where it stopped, the batches it pushed and
    /// the frames it wrote.
    type Transcript = Vec<(Step, Vec<(usize, Vec<u32>)>, Vec<Response>)>;

    fn decode_all(mut out: &[u8]) -> Vec<Response> {
        let mut frames = Vec::new();
        while !out.is_empty() {
            let len = u32::from_le_bytes(out[..4].try_into().unwrap()) as usize;
            frames.push(decode_response(&out[4..4 + len]).unwrap());
            out = &out[4 + len..];
        }
        frames
    }

    /// Steps `input` through a fresh core until it drains or is
    /// poisoned, then checks the core kept nothing for the next
    /// connection. Returns the transcript and the per-shard busy counts.
    fn run(model: &mut Model, input: &[In]) -> (Transcript, Vec<u64>) {
        let shards = model.cap.len();
        let mut front = Front::new(shards, BLOCK);
        let mut frames = (0u32..).zip(input).map(|(seq, &i)| frame(seq, i, shards));
        let mut transcript = Transcript::new();
        loop {
            let (before, mut out) = (model.pushed.len(), Vec::new());
            let step = front.step(|| frames.next().transpose(), 7, model, &mut out);
            let pushed = model.pushed[before..].to_vec();
            transcript.push((step, pushed, decode_all(&out)));
            if matches!(step, Step::Drained | Step::Poisoned) {
                break;
            }
        }
        let (before, mut out) = (model.pushed.len(), Vec::new());
        let idle = front.step(|| Ok(None), 7, model, &mut out);
        assert_eq!(
            (idle, model.pushed.len(), out.len()),
            (Step::Drained, before, 0)
        );
        (transcript, front.busy)
    }

    /// A table row: name, queues, input, transcript, busy counts.
    type Row = (&'static str, Model, Vec<In>, Transcript, Vec<u64>);

    fn busy(seqs: impl IntoIterator<Item = u32>, depth: u32) -> Vec<Response> {
        seqs.into_iter()
            .map(|seq| Response::Busy { seq, depth })
            .collect()
    }

    #[test]
    fn admission_table() {
        let closed = {
            let mut m = Model::new(vec![ROOMY, ROOMY]);
            m.closed[1] = true;
            m
        };
        let full = {
            let mut m = Model::new(vec![4]);
            m.depth[0] = 4;
            m
        };
        let io = |s, n| vec![In::Io(s); n];
        let rows: Vec<Row> = vec![
            (
                "a partial grant submits the prefix and bounces the rest",
                Model::new(vec![4]),
                io(0, 32),
                vec![(Step::Drained, vec![(0, (0..4).collect())], busy(4..32, 4))],
                vec![28],
            ),
            (
                "a full queue bounces the whole batch with its depth",
                full,
                io(0, 3),
                vec![(Step::Drained, vec![], busy(0..3, 4))],
                vec![3],
            ),
            (
                "a closed shard bounces with depth 0, its sibling serves",
                closed,
                vec![In::Io(1), In::Io(0), In::Io(1)],
                vec![(Step::Drained, vec![(0, vec![1])], busy([0, 2], 0))],
                vec![0, 2],
            ),
            (
                "requests group per shard in wire order",
                Model::new(vec![ROOMY; 3]),
                vec![
                    In::Io(2),
                    In::Io(0),
                    In::Io(1),
                    In::Io(0),
                    In::Io(2),
                    In::Data(1),
                ],
                vec![(
                    Step::Drained,
                    vec![(0, vec![1, 3]), (1, vec![2, 5]), (2, vec![0, 4])],
                    vec![],
                )],
                vec![0, 0, 0],
            ),
            (
                "the batch limit cuts 1025 requests into 1024 and 1",
                Model::new(vec![ROOMY]),
                io(0, BATCH_LIMIT + 1),
                vec![(
                    Step::Drained,
                    vec![(0, (0..1024).collect()), (0, vec![1024])],
                    vec![],
                )],
                vec![0],
            ),
            (
                "STATS and SHUTDOWN submit everything before them",
                Model::new(vec![ROOMY, ROOMY]),
                vec![
                    In::Io(0),
                    In::Io(1),
                    In::Stats,
                    In::Io(1),
                    In::Shutdown,
                    In::Io(0),
                ],
                vec![
                    (
                        Step::Stats { seq: 2 },
                        vec![(0, vec![0]), (1, vec![1])],
                        vec![],
                    ),
                    (
                        Step::Shutdown { seq: 4 },
                        vec![(1, vec![3])],
                        vec![Response::Shutdown { seq: 4 }],
                    ),
                    (Step::Drained, vec![(0, vec![5])], vec![]),
                ],
                vec![0, 0],
            ),
            (
                "a STATS step follows the BUSY frames of the IO before it",
                Model::new(vec![1]),
                vec![In::Io(0), In::Io(0), In::Stats, In::Io(0), In::Shutdown],
                vec![
                    (Step::Stats { seq: 2 }, vec![(0, vec![0])], busy([1], 1)),
                    (Step::Shutdown { seq: 4 }, vec![], {
                        let mut frames = busy([3], 1);
                        frames.push(Response::Shutdown { seq: 4 });
                        frames
                    }),
                    (Step::Drained, vec![], vec![]),
                ],
                vec![2],
            ),
            (
                "a bad data frame drops the unsubmitted requests",
                Model::new(vec![1, 1]),
                vec![In::Io(0), In::Io(1), In::Io(0), In::BadData, In::Io(1)],
                vec![(Step::Poisoned, vec![], vec![])],
                vec![0, 0],
            ),
            (
                "garbage after a cut keeps the cut and drops the rest",
                Model::new(vec![ROOMY]),
                [io(0, BATCH_LIMIT + 2), vec![In::Garbage, In::Io(0)]].concat(),
                vec![(Step::Poisoned, vec![(0, (0..1024).collect())], vec![])],
                vec![0],
            ),
        ];
        for (name, mut model, input, want, want_busy) in rows {
            let (transcript, busy) = run(&mut model, &input);
            assert_eq!(transcript, want, "{name}");
            assert_eq!(busy, want_busy, "{name}");
        }
    }

    /// A seeded property over random rows: every IO request is answered
    /// exactly once, pushed or `BUSY`; each step that stops early has
    /// answered every IO request before it; each shard's busy count is
    /// its `BUSY` frames; and each shard sees its requests in wire order.
    #[test]
    fn every_io_request_is_answered_once_in_wire_order() {
        let mut rng = StdRng::seed_from_u64(48);
        for row in 0..1_500 {
            let shards = rng.gen_range(1..=4usize);
            let mut model = Model::new((0..shards).map(|_| rng.gen_range(1..=12)).collect());
            for s in 0..shards {
                model.depth[s] = rng.gen_range(0..=model.cap[s]);
                model.closed[s] = rng.gen_bool(0.1);
            }
            model.consumer = Some(StdRng::seed_from_u64(row));
            let long = rng.gen_bool(0.05);
            let len = if long {
                1_100
            } else {
                rng.gen_range(0..=48usize)
            };
            let input: Vec<In> = (0..len)
                .map(|_| match rng.gen_range(0..20u32) {
                    0 => In::Stats,
                    1 => In::Shutdown,
                    2 => In::Data(rng.gen_range(0..shards)),
                    _ if long => In::Io(0),
                    _ => In::Io(rng.gen_range(0..shards)),
                })
                .collect();
            let (transcript, busy_counts) = run(&mut model, &input);

            let shard_of_seq = |seq: u32| match input[seq as usize] {
                In::Io(s) | In::Data(s) => Some(s),
                _ => None,
            };
            let mut answered = vec![0u32; input.len()];
            let mut busy_frames = vec![0u64; shards];
            let mut last = vec![None; shards];
            for (step, pushed, frames) in &transcript {
                for (s, seqs) in pushed {
                    assert!(seqs.len() <= BATCH_LIMIT, "row {row}");
                    for &seq in seqs {
                        assert_eq!(shard_of_seq(seq), Some(*s), "row {row}");
                        assert!(last[*s] < Some(seq), "row {row}: shard {s} out of order");
                        last[*s] = Some(seq);
                        answered[seq as usize] += 1;
                    }
                }
                for frame in frames {
                    match *frame {
                        Response::Busy { seq, .. } => {
                            busy_frames[shard_of_seq(seq).unwrap()] += 1;
                            answered[seq as usize] += 1;
                        }
                        Response::Shutdown { seq } => {
                            assert_eq!(*step, Step::Shutdown { seq }, "row {row}");
                        }
                        ref other => panic!("row {row}: unexpected {other:?}"),
                    }
                }
                if let Step::Stats { seq } | Step::Shutdown { seq } = *step {
                    let io_before = (0..seq).filter(|&q| shard_of_seq(q).is_some());
                    assert!(io_before.into_iter().all(|q| answered[q as usize] == 1));
                }
            }
            assert_eq!(transcript.last().unwrap().0, Step::Drained, "row {row}");
            for (seq, n) in answered.iter().enumerate() {
                let want = u32::from(shard_of_seq(seq as u32).is_some());
                assert_eq!(*n, want, "row {row}: seq {seq}");
            }
            assert_eq!(busy_counts, busy_frames, "row {row}");
        }
    }
}
