//! Allocation regression test for the data-plane codec.
//!
//! Encoding and decoding a frame must cost a fixed number of heap
//! allocations, whatever the number of field elements it carries: no
//! allocation per element, one exact-size buffer per encoded frame (trace
//! suffix included) and one per decoded collection. A counting global
//! allocator pins this for vectors of 8 and of 1024 elements.

use prio_core::client::ShareBlob;
use prio_core::messages::{blob_from_bytes, blob_to_bytes, ServerMsg};
use prio_field::{Field128, Field64, FieldElement};
use prio_net::wire::{from_traced_bytes, to_traced_bytes};
use prio_obs::TraceCtx;
use prio_snip::{Round1Msg, Round2Msg};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

/// The system allocator plus a per-thread count of calls that can hand out
/// a block, so tests running on other threads do not disturb a count.
struct Counting;

thread_local! {
    // Const-initialised and without a destructor, so reading it never
    // allocates.
    static CALLS: Cell<u64> = const { Cell::new(0) };
}

fn bump() {
    let _ = CALLS.try_with(|c| c.set(c.get() + 1));
}

// SAFETY: every method forwards its arguments unchanged to `System`, which
// upholds the `GlobalAlloc` contract; the counter touches no memory the
// caller owns.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: the caller's `layout` obligations pass through unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        bump();
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        bump();
        // SAFETY: `ptr` was allocated by this allocator (so by `System`)
        // with `layout`, as the caller guarantees.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` was allocated by `System` with `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Runs `f` and returns its result with the allocations it made on this
/// thread.
fn allocs<T>(f: impl FnOnce() -> T) -> (T, u64) {
    let before = CALLS.with(Cell::get);
    let out = f();
    (out, CALLS.with(Cell::get) - before)
}

const CTX: TraceCtx = TraceCtx {
    trace: 7,
    parent: 9,
};

/// Blobs per `ClientBatch`; fixed, so only the element count varies.
const BLOBS: usize = 4;

/// Allocation counts for one encode and one decode of each frame kind,
/// built from vectors of `n` elements.
#[derive(Debug, PartialEq)]
struct Counts {
    blob_encode: u64,
    batch_encode: u64,
    batch_decode: u64,
    blob_decode: u64,
    frame_encode: [u64; 3],
    frame_decode: [u64; 3],
}

fn counts<F: FieldElement>(n: usize) -> Counts {
    let elems: Vec<F> = (0..n as u64)
        .map(|i| F::from_u64(i * 0x9e37_79b9))
        .collect();
    let blob = ShareBlob::Explicit(elems.clone());

    let (blob_bytes, blob_encode) = allocs(|| blob_to_bytes(&blob));
    let batch = ServerMsg::<F>::ClientBatch {
        ctx_seed: 1,
        labels: (0..BLOBS as u64).collect(),
        blobs: vec![blob_bytes; BLOBS],
    };
    let (frame, batch_encode) = allocs(|| to_traced_bytes(&batch, Some(CTX)));
    let (decoded, batch_decode) = allocs(|| from_traced_bytes::<ServerMsg<F>>(&frame));
    assert_eq!(decoded, Ok((batch.clone(), Some(CTX))));
    let ServerMsg::ClientBatch { blobs, .. } = batch else {
        unreachable!("built as a ClientBatch")
    };
    let (parsed, blob_decode) = allocs(|| blob_from_bytes::<F>(&blobs[0]));
    assert_eq!(parsed, Ok(blob));

    let frames = [
        ServerMsg::Round1 {
            ctx: 2,
            msgs: elems.iter().map(|&x| Round1Msg { d: x, e: -x }).collect(),
        },
        ServerMsg::Round2 {
            ctx: 3,
            msgs: elems
                .iter()
                .map(|&x| Round2Msg { sigma: -x, out: x })
                .collect(),
        },
        ServerMsg::Accumulator(elems),
    ];
    let mut frame_encode = [0; 3];
    let mut frame_decode = [0; 3];
    for (i, msg) in frames.iter().enumerate() {
        let (bytes, enc) = allocs(|| to_traced_bytes(msg, Some(CTX)));
        let (back, dec) = allocs(|| from_traced_bytes::<ServerMsg<F>>(&bytes));
        assert_eq!(back.as_ref().map(|(m, _)| m), Ok(msg));
        frame_encode[i] = enc;
        frame_decode[i] = dec;
    }
    Counts {
        blob_encode,
        batch_encode,
        batch_decode,
        blob_decode,
        frame_encode,
        frame_decode,
    }
}

fn check_field<F: FieldElement>() {
    let small = counts::<F>(8);
    assert_eq!(
        small,
        counts::<F>(1024),
        "{}: allocations grow with the element count",
        F::NAME
    );
    // One exact-size buffer per encoded frame or blob: a second
    // allocation would mean the buffer grew, e.g. for the trace suffix.
    assert_eq!(small.blob_encode, 1, "{}", F::NAME);
    assert_eq!(small.batch_encode, 1, "{}", F::NAME);
    assert_eq!(small.frame_encode, [1; 3], "{}", F::NAME);
    // Decoding allocates each collection once: labels, the blob list and
    // each blob for a ClientBatch; the one vector for the others.
    assert_eq!(small.batch_decode, 2 + BLOBS as u64, "{}", F::NAME);
    assert_eq!(small.blob_decode, 1, "{}", F::NAME);
    assert_eq!(small.frame_decode, [1; 3], "{}", F::NAME);
}

#[test]
fn field64_codec_allocations_do_not_grow_with_elements() {
    check_field::<Field64>();
}

#[test]
fn field128_codec_allocations_do_not_grow_with_elements() {
    check_field::<Field128>();
}
