(** {!Memory.S} on OCaml 5 atomics and real domains; see the
    implementation's header for the cell encoding and the k-CAS
    protocol.  The descriptor mark stays behind this interface: no
    caller can build a value that reads as a descriptor. *)

include Memory.S with type line = unit

val max_threads_limit : int
(** The bound {!max_threads} returns; a domain past it fails on
    {!self}. *)

val kdx_acquire_hook : (int -> unit) ref
(** Test-only: called after each successful k-CAS phase-1 acquisition
    with the number of entries acquired so far.  The helping unit test
    raises out of it to model a committer crash-stopped mid-commit, then
    lets an ordinary access finish the descriptor. *)
