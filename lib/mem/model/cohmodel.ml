(** The pluggable cache-coherence cost model contract.

    The simulator core ({!Sim}) owns threads, continuations, scheduling,
    faults and the counters/observer layer; everything that
    depends on {e where a cache line lives} — latency classes, line
    state, private/LLC tag arrays, energy per service class — lives
    behind this signature.  Two implementations ship, registered under
    three names ({!Models}):

    - {!Coh_dir}: one directory model (per-core private tags, per-socket
      LLC tags, owner + sharer set per line), instantiated twice by
      {!Models}: ["mesi"] (default), the MESI-like inclusive-LLC model
      the repository has always used — schedule counts, golden results
      and replay files are its behavior — and ["moesi"], an
      Opteron-style victim LLC with an Owned state, for
      reproducing the paper's cross-platform shape differences
      (Opteron's HT-interconnect LLC vs. the Xeons' inclusive one).
    - {!Coh_flat} (["flat"]): O(1) uniform cost, no line state at all.
      For SCT/DPOR exploration and analysis sweeps, where the schedule
      is controlled and timing fidelity is irrelevant, and as the
      cross-check that those results do not depend on the model.

    Contract details a conforming model must honor:

    - [access] is called once per committed non-transactional access,
      {e after} the core has charged [accesses]/[writes] and {e before}
      it notifies the observer.  The model updates the service-class
      counters ([l1]/[llc]/[c2c_*]/[llc_remote]/[mem]), [rmw] (for
      [Rmw] accesses) and the class-dependent [energy] of [cnt], stores
      the service class in [cnt.last_class] (the class the observer is
      told), mutates its own line/tag state, and returns the access
      latency in cycles (including any atomic-op surcharge).  It must
      not touch [accesses], [writes] or the per-instruction energy — the
      core owns those.  It runs on every simulated access, so it should
      allocate nothing.
    - [on_new_line] is called once per allocated line id, in order.
    - [txn_*] back the best-effort transaction path: [txn_conflict]
      says whether a line is dirty in another core's cache (abort),
      [txn_line_cost] estimates one buffered access (private-hit vs
      LLC-hit), and [txn_commit] applies ownership for one written
      line at commit.
    - [warm ~nlines] installs the steady state a long-running benchmark
      reaches (the paper measures 5-second runs); what that means is
      model-specific.
    - Determinism: same call sequence, same results.  No randomness, no
      wall-clock, no global state outside [t]. *)

module P = Ascy_platform.Platform

module type S = sig
  type t

  val name : string
  (** Stable identifier used on CLIs and recorded in replay files
      ("mesi", "flat", "moesi"). *)

  val create : platform:P.t -> t

  val on_new_line : t -> int -> unit
  (** A new line id was allocated (ids are dense, ascending from 0). *)

  val access : t -> Simtypes.mem_counters -> core:int -> socket:int -> Simtypes.access_kind -> int -> int
  (** [access t cnt ~core ~socket kind line] charges one committed
      access to [cnt], leaves its service class in [cnt.last_class] and
      returns its latency in cycles. *)

  val txn_conflict : t -> core:int -> int -> bool
  (** Line is in modified state in another core's cache: the
      transaction must abort. *)

  val txn_line_cost : t -> core:int -> int -> int
  (** Estimated cycles for one buffered transactional access. *)

  val txn_commit : t -> core:int -> socket:int -> int -> unit
  (** Commit one written line: it becomes exclusively [core]'s. *)

  val warm : t -> nlines:int -> unit
end

(** A model packed with one live instance, so {!Sim} can hold any model
    without a type parameter. *)
type inst = Inst : (module S with type t = 'a) * 'a -> inst

(** A model constructor, as selected on CLIs / stored in configs. *)
type spec = (module S)

let instantiate ((module M : S) : spec) ~platform = Inst ((module M), M.create ~platform)

let name ((module M : S) : spec) = M.name
