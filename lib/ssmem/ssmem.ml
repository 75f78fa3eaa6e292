(** SSMEM: an epoch-based memory reclamation scheme (paper §3).

    Freed nodes are not reusable until a garbage-collection pass proves
    that no thread can still hold a reference, using per-thread activity
    timestamps (quiescent-state-based reclamation, as in the C SSMEM):

    - every thread bumps its own timestamp between operations
      ([quiesce], wired to [Set_intf.op_done]);
    - [free] buffers garbage in the calling thread's current batch;
    - once {!gc_threshold} objects have accumulated, the batch is stamped
      with a snapshot of all timestamps and parked; parked batches whose
      every stamp has since advanced are reclaimed.

    In OCaml the runtime GC already guarantees memory safety and ABA
    freedom, so "reclaiming" here feeds a statistics channel and an
    optional recycler rather than a raw allocator; what is preserved from
    the paper is the *behaviour*: deferred reuse, configurable garbage
    thresholds (the Tilera runs use 128 instead of 512), GC-pass counts,
    and the non-blocking design based on per-thread counters.  The
    threshold is {!gc_threshold}, which every allocator reads when it
    is created.

    QSBR's classic liability rides along: a thread that stops quiescing
    — crashed, stalled, or just descheduled forever — freezes its
    activity timestamp, and every batch parked after that point waits on
    it forever.  Garbage then grows without bound while nothing is ever
    reclaimed unsafely.  {!stuck_epochs} detects exactly this (which
    threads are pinning how much parked garbage) and {!detach} is the
    administrative escape hatch: once a thread is declared dead its
    frozen stamp no longer pins batches, and {!collect_all} drains
    whatever became reclaimable. *)

(* ascy-lint: allow-mutable-record — [thread_state] is the calling
   thread's private allocator state (indexed by [Mem.self ()]); only the
   activity timestamps are shared, and those live in [Mem.r] cells. *)

(** Objects a thread buffers before it parks the batch and runs a
    collection pass.  Read at {!Make.create}, so set it before building
    a structure ([bench/exp_ssmem.ml] sweeps it, [Ascy_check] raises
    it). *)
let gc_threshold = ref 512

module Make (Mem : Ascy_mem.Memory.S) = struct
  type garbage = Garbage : 'a -> garbage

  type batch = { stamp : int array; items : garbage list; size : int }

  type thread_state = {
    mutable current : garbage list;
    mutable current_size : int;
    mutable parked : batch list;
    mutable freed : int;
    mutable reclaimed : int;
    mutable gc_passes : int;
  }

  (* Per-thread vectors are [Mem.max_threads ()] long (512 natively) and
     live in blocks of [block]: OCaml puts an array over 256 words
     straight in the major heap, and one built from a young first element
     forces a minor collection, so one such array per create made every
     create pay one. *)
  let block = 64
  let block_shift = 6 (* log2 block *)

  (* [n] entries: [mk len] builds each block of [len]. *)
  let blocks n mk = Array.init ((n + block - 1) / block) (fun b -> mk (min block (n - (b * block))))

  let ( .%() ) v i = v.(i lsr block_shift).(i land (block - 1))
  let ( .%()<- ) v i x = v.(i lsr block_shift).(i land (block - 1)) <- x

  type t = {
    gc_threshold : int;
    n : int; (* [Mem.max_threads ()] *)
    ts : int Mem.r array array; (* per-thread activity timestamps *)
    states : thread_state option array array; (* lazily created, owner-only *)
    reclaimer : (garbage -> unit) option;
    detached : Bytes.t;
        (* administrative (not simulated memory): a non-zero byte [i]
           declares thread [i] dead — its frozen timestamp no longer pins
           batches *)
  }

  let create ?reclaimer () =
    let n = Mem.max_threads () in
    {
      gc_threshold = !gc_threshold;
      n;
      ts = blocks n (fun len -> Array.init len (fun _ -> Mem.make_fresh 0));
      states = blocks n (fun len -> Array.make len None);
      reclaimer;
      detached = Bytes.make n '\000';
    }

  let iter_states f t = Array.iter (Array.iter (Option.iter f)) t.states

  let state t =
    let me = Mem.self () in
    match t.states.%(me) with
    | Some s -> s
    | None ->
        let s =
          { current = []; current_size = 0; parked = []; freed = 0; reclaimed = 0; gc_passes = 0 }
        in
        t.states.%(me) <- Some s;
        s

  let snapshot t = Array.init t.n (fun i -> Mem.get t.ts.%(i))

  (* Does thread [i]'s timestamp still pin a batch stamped [s] with it?
     The live timestamp is read before the short-circuit tests, so every
     call makes the same simulated access. *)
  let pins t i s = not (Mem.get t.ts.%(i) > s || s = 0 || Bytes.get t.detached i <> '\000')

  (* A parked batch is safe once every thread's timestamp moved past the
     one recorded when the batch was parked (threads that never registered
     stay at their initial value only if they never run operations; they
     hold no references, so a strictly-greater check on changed entries
     suffices: we require ts > stamp OR stamp = ts = 0 meaning idle). *)
  let batch_safe t b =
    let ok = ref true in
    Array.iteri
      (fun i s -> if pins t i s then ok := false)
      b.stamp;
    !ok

  let collect t s =
    s.gc_passes <- s.gc_passes + 1;
    Mem.emit Ascy_mem.Event.gc_pass;
    let ready, still = List.partition (batch_safe t) s.parked in
    s.parked <- still;
    List.iter
      (fun b ->
        s.reclaimed <- s.reclaimed + b.size;
        match t.reclaimer with
        | Some r -> List.iter r b.items
        | None -> ())
      ready

  (** Announce a quiescent point: the calling thread holds no references
      into any structure using this allocator.  Call between operations. *)
  let quiesce t =
    let me = Mem.self () in
    let c = t.ts.%(me) in
    Mem.set c (Mem.get c + 1);
    (* opportunistically retire parked batches, as the C allocator does on
       its allocation path *)
    match t.states.%(me) with
    | Some s when s.parked <> [] -> collect t s
    | _ -> ()


  (** Defer [x] for reclamation. *)
  let free t x =
    let s = state t in
    s.current <- Garbage x :: s.current;
    s.current_size <- s.current_size + 1;
    s.freed <- s.freed + 1;
    if s.current_size >= t.gc_threshold then begin
      let stamp = snapshot t in
      (* mark our own slot as always-safe: we are parking, not reading *)
      stamp.(Mem.self ()) <- 0;
      s.parked <- { stamp; items = s.current; size = s.current_size } :: s.parked;
      s.current <- [];
      s.current_size <- 0;
      collect t s
    end

  (** Per-thread stuck-epoch report: thread [tid]'s activity timestamp
      has not moved past [batches] parked batches holding [items]
      deferred objects — they can never be reclaimed while it stays
      frozen.  [since] is the frozen timestamp value. *)
  type stuck = { tid : int; since : int; batches : int; items : int }

  (** Which threads are pinning parked garbage right now, and how much.
      A thread appears iff it is not detached and at least one parked
      batch (any owner's) is waiting on its timestamp.  Under faults
      this is the bounded-garbage-growth report: a crashed thread shows
      up here with a monotonically growing [items] count. *)
  let stuck_epochs t =
    let n = t.n in
    let batches = Array.make n 0 and items = Array.make n 0 in
    iter_states
      (fun s ->
        List.iter
          (fun b ->
            Array.iteri
              (fun i st ->
                if pins t i st then begin
                  batches.(i) <- batches.(i) + 1;
                  items.(i) <- items.(i) + b.size
                end)
              b.stamp)
          s.parked)
      t;
    let out = ref [] in
    for i = n - 1 downto 0 do
      if batches.(i) > 0 then
        out := { tid = i; since = Mem.get t.ts.%(i); batches = batches.(i); items = items.(i) } :: !out
    done;
    !out

  (** Declare thread [tid] dead: its frozen activity timestamp stops
      pinning parked batches.  Administrative — call it only once the
      thread can no longer run (crash-stopped, joined, ...); detaching a
      thread that still holds references would allow unsafe reuse,
      exactly as in the C allocator's [ssmem_term]. *)
  let detach t tid = Bytes.set t.detached tid '\001'

  (** Run a collection pass over every thread's parked batches (not just
      the caller's), e.g. after {!detach} has unpinned them. *)
  let collect_all t =
    iter_states (fun s -> if s.parked <> [] then collect t s) t

  type stats = { freed : int; reclaimed : int; pending : int; gc_passes : int }

  (** Aggregate statistics across all threads. *)
  let stats t =
    let freed = ref 0 and reclaimed = ref 0 and passes = ref 0 in
    iter_states
      (fun (s : thread_state) ->
        freed := !freed + s.freed;
        reclaimed := !reclaimed + s.reclaimed;
        passes := !passes + s.gc_passes)
      t;
    { freed = !freed; reclaimed = !reclaimed; pending = !freed - !reclaimed; gc_passes = !passes }
end
