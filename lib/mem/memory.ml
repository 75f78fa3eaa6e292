(** The shared-memory abstraction every CSDS in ASCYLIB-OCaml is written
    against.

    Algorithms are functors over {!S} so the same code runs in two modes:

    - {!Mem_native}: ['a r] is one block whose first field, read and
      CASed atomically, holds the value itself (or a k-CAS descriptor,
      told apart by a private mark); programs execute on real OCaml 5
      domains.  Used for unit tests, domain-based stress tests,
      examples, and the perf ledger's native workload.
    - {!Sim.Mem}: every access is an OCaml effect handled by a
      discrete-event multicore simulator with a cache-coherence cost model.
      Used to reproduce the paper's cross-platform scalability results and
      for deterministic schedule-fuzzing tests.

    Conventions:
    - [cas] uses {e physical} equality, like a pointer CAS in C.  Use it on
      immediates (ints, constant constructors) or on record/block values
      you previously read from the same cell.
    - A {!line} models a cache line.  Cells created with [make line v] on
      the same line contend as a unit in the simulator (false sharing,
      CLHT's single-line buckets).  [touch line] models reading immutable
      data (keys, values) that lives on the line; call it once per node
      visited during traversals.
    - [kcas] commits a multi-word CAS: every cell still holds its
      expected value (physical equality, as for [cas]) and all desired
      values are installed, or nothing is written.  Natively this is a
      Harris-style RDCSS/k-CAS with helping; under the simulator it is
      one atomic multi-line commit charged per touched line. *)

module type S = sig
  type line
  (** A modeled cache line (simulator) or unit (native). *)

  val new_line : unit -> line

  type 'a r
  (** A shared mutable cell. *)

  val make : line -> 'a -> 'a r
  (** [make line v] allocates a cell holding [v], placed on [line]. *)

  val make_fresh : 'a -> 'a r
  (** [make_fresh v] is [make (new_line ()) v]. *)

  val get : 'a r -> 'a
  val set : 'a r -> 'a -> unit

  val cas : 'a r -> 'a -> 'a -> bool
  (** [cas r expected desired] — atomic compare-and-swap with physical
      equality on [expected]. *)

  val fetch_and_add : int r -> int -> int
  (** Atomic fetch-and-add; returns the previous value. *)

  type kcas_op
  (** One cell/expected/desired triple of a multi-word CAS. *)

  val kcas_op : 'a r -> expected:'a -> desired:'a -> kcas_op
  (** [kcas_op r ~expected ~desired] — the triple, with the cell's value
      type hidden so triples over different cell types compose into one
      commit. *)

  val kcas : kcas_op list -> bool
  (** [kcas ops] atomically checks that every cell holds its expected
      value ({e physical} equality, as for {!cas}) and, if so, installs
      every desired value; otherwise writes nothing.  Returns success.
      All-or-nothing and linearizable on both backends.  [kcas []] is
      [true]; the same cell listed twice raises [Invalid_argument]. *)

  val touch : line -> unit
  (** Model a read of immutable data residing on [line]. *)

  val work : int -> unit
  (** Charge [n] cycles of local computation (no-op natively). *)

  val cpu_relax : unit -> unit
  (** Spin-wait hint. *)

  val yield_cpu : unit -> unit
  (** Give the processor away, for a spin-wait that has already spun
      long: natively a short OS-level sleep, so that a descheduled lock
      holder (or the next ticket holder) can run when there are more
      spinning domains than cores; nothing in the simulator, which
      schedules its own threads and charges no time for it. *)

  val self : unit -> int
  (** Dense id of the calling thread (domain or simulated thread). *)

  val max_threads : unit -> int
  (** Upper bound on thread ids, for sizing per-thread arrays. *)

  val emit : int -> unit
  (** Record one algorithm-level event (see {!Event}).  Only the
      simulator counts events (per thread, in its run statistics); the
      native backend's [emit] is a no-op. *)

  val txn : (unit -> 'a) -> 'a option
  (** Attempt to run [f] as a best-effort hardware transaction (TSX-style
      lock elision).  [None] means the transaction did not run or
      aborted — the caller must fall back to its lock path.  Native
      OCaml has no HTM, so {!Mem_native} always returns [None]; the
      simulator executes [f] atomically, charges its accesses, and
      aborts on conflicts (a touched line owned by another core) or
      capacity overflow, rolling back buffered writes. *)
end
