(** The directory coherence model: one line/tag state and one access
    state machine, which {!Models} instantiates twice as {!Cohmodel.S}
    values — ["mesi"], the inclusive-LLC default, and ["moesi"], the
    Opteron-style victim LLC.  The two differ in the {!t.victim} rule
    only.

    State:
    - a per-core direct-mapped private cache (tag array sized like
      L1+L2),
    - a per-socket direct-mapped LLC tag array,
    - a directory: one flat [int array] holding, per line, the owning
      core (modified state, or -1) and the sharer set as a bit mask of
      cores.  A mask fits one [int] because every platform has fewer
      than [Sys.int_size] cores; {!create} rejects one that has not.

    Tag arrays are materialised on demand: each starts empty and grows
    (by powers of two, up to its full slot count) only when a line is
    installed past its current length, and a slot not yet materialised
    reads as empty.  The slot function and the slot counts are those of
    the full direct-mapped arrays, so every hit, miss, eviction and cost
    class is unchanged; only set-up cost and memory follow the lines a
    session actually touches rather than the platform's cache sizes.

    Costs: private hits, local LLC hits, in-socket and cross-socket
    dirty-line transfers, remote clean fetches and DRAM — exactly the
    mechanism the paper identifies as the scalability limiter (stores to
    shared lines invalidate copies and turn other threads' future loads
    into coherence misses).  Latency constants come from the platform
    record; the model decides {e which} class an access falls in. *)

module P = Ascy_platform.Platform
open Simtypes

type t = {
  victim : bool;
    (** [false]: an inclusive LLC (MESI).  A fetch fills the local LLC, a
        read of a dirty line demotes the owner to a sharer, and a write
        fills the writer's LLC.

        [true]: an Opteron-style MOESI protocol with a non-inclusive
        victim LLC, for reproducing the paper's cross-platform {e shape}
        differences.  Three mechanisms distinguish the Opteron from the
        inclusive-LLC Xeons in the paper's measurements:

        - {b Owned state}: a read of a line that is dirty in another
          core's cache is served cache-to-cache, but the owner {e keeps}
          the line (state O) instead of demoting to shared-clean.  The
          next write by the owner is a private hit again — but every
          other core's read keeps paying the transfer, so reader/writer
          sharing stays expensive for the readers (the paper's "loads of
          an Owned line are serviced from the remote cache").
        - {b Non-inclusive victim LLC}: the LLC is filled by private-cache
          {e evictions}, not by fetches.  A clean line read from DRAM or a
          remote socket does not get a local LLC backing copy, so
          re-fetches after private eviction keep paying the long path —
          the directory-less HT broadcast behavior that makes the
          Opteron's uncontended latencies worse and its cross-socket
          sharing costs flatter than the Xeons'.  Writes invalidate every
          LLC copy (the only valid copy is the writer's private one), so a
          subsequent remote read is a c2c transfer, never a stale LLC hit.
        - {b HT-priced upgrades}: without an inclusive directory the
          invalidation of an upgrade is an HT broadcast probe,
          remote-priced whenever any remote cache — another socket's LLC
          included — could hold a copy. *)
  plat : P.t;
  cps : int; (* cores per socket *)
  outside : int array; (* per socket: the mask of every core on another socket *)
  mutable dir : int array; (* [owner; sharer mask] per line, at [2 * line] *)
  mutable nlines : int;
  priv : int array array; (* per-core direct-mapped private-cache tags *)
  priv_mask : int;
  llc_tags : int array array; (* per-socket LLC tags *)
  llc_mask : int;
}

let rec pow2_at_least n k = if k >= n then k else pow2_at_least n (2 * k)

let create ~victim ~platform =
  if platform.P.cores >= Sys.int_size then
    invalid_arg
      (Printf.sprintf "Coh_dir.create: %s has %d cores; a sharer mask holds at most %d"
         platform.P.name platform.P.cores (Sys.int_size - 1));
  let priv_slots = pow2_at_least (min platform.P.l1_lines 16384) 64 in
  let llc_slots = pow2_at_least (min platform.P.llc_lines 524288) 1024 in
  let cps = P.cores_per_socket platform in
  let all = (1 lsl platform.P.cores) - 1 in
  {
    victim;
    plat = platform;
    cps;
    outside = Array.init platform.P.sockets (fun s -> all land lnot (((1 lsl cps) - 1) lsl (s * cps)));
    dir = Array.make 4096 0 (* 2,048 lines before the first doubling *);
    nlines = 0;
    priv = Array.make platform.P.cores [||];
    priv_mask = priv_slots - 1;
    llc_tags = Array.make platform.P.sockets [||];
    llc_mask = llc_slots - 1;
  }

let on_new_line t _id =
  let i = 2 * t.nlines in
  if i = Array.length t.dir then begin
    let grown = Array.make (2 * i) 0 in
    Array.blit t.dir 0 grown 0 i;
    t.dir <- grown
  end;
  t.dir.(i) <- -1;
  t.dir.(i + 1) <- 0;
  t.nlines <- t.nlines + 1

(* The directory index of [line]'s owner; its sharer mask follows. *)
let[@inline] entry t line =
  if line < 0 || line >= t.nlines then invalid_arg "Coh_dir: unknown line";
  2 * line

let em = P.energy_model

(* The tag in [slot] of array [i] of [tags]; a slot past the array's
   current length is empty. *)
let[@inline] tag tags i slot =
  let a = tags.(i) in
  if slot < Array.length a then Array.unsafe_get a slot else -1

(* Store [line] in [slot] of array [i] of [tags], whose full slot count
   is [mask + 1].  A slot past the current length first grows that one
   array to the next power of two holding it (at least 64, at most the
   full count), with the new slots empty. *)
let set_tag tags i mask slot line =
  let a = tags.(i) in
  if slot < Array.length a then a.(slot) <- line
  else begin
    let grown = Array.make (min (mask + 1) (pow2_at_least (slot + 1) 64)) (-1) in
    Array.blit a 0 grown 0 (Array.length a);
    grown.(slot) <- line;
    tags.(i) <- grown
  end

let in_priv t core line = tag t.priv core (line land t.priv_mask) = line
let install_llc t socket line = set_tag t.llc_tags socket t.llc_mask (line land t.llc_mask) line
let in_llc t socket line = tag t.llc_tags socket (line land t.llc_mask) = line

let in_remote_llc t socket line =
  let remote = ref false in
  for os = 0 to t.plat.P.sockets - 1 do
    if os <> socket && in_llc t os line then remote := true
  done;
  !remote

(* Install [line] in [core]'s private cache, evicting (and de-registering)
   whatever direct-mapped slot it lands on.  A victim LLC is filled here —
   the only way it is filled outside [warm]. *)
let install_priv t core socket line =
  let slot = line land t.priv_mask in
  let old = tag t.priv core slot in
  if old >= 0 && old <> line then begin
    let d = t.dir and o = entry t old in
    d.(o + 1) <- d.(o + 1) land lnot (1 lsl core);
    if d.(o) = core then d.(o) <- -1 (* writeback *);
    if t.victim then install_llc t socket old
  end;
  set_tag t.priv core t.priv_mask slot line

(* A fetched or written line backs into the local LLC only when it is
   inclusive. *)
let fill t socket line = if not t.victim then install_llc t socket line

(* Count one access of [kind] served from [cls], charge its energy,
   record its class and return its latency (with any atomic surcharge).
   An LLC-served write is an upgrade: an invalidation round, priced like
   a transfer.  Inlined at every call site, where [cls] is a constant, so
   the dispatch on it folds away. *)
let[@inline] serve p cnt kind cls =
  cnt.energy.nj <-
    (cnt.energy.nj
    +.
    match cls with
    | Tc_l1 -> em.P.nj_l1
    | Tc_llc -> ( match kind with Read -> em.P.nj_llc | Write | Rmw -> em.P.nj_transfer)
    | Tc_c2c_local | Tc_c2c_remote | Tc_llc_remote -> em.P.nj_transfer
    | Tc_mem -> em.P.nj_mem);
  cnt.last_class <- cls;
  let lat =
    match cls with
    | Tc_l1 -> cnt.l1 <- cnt.l1 + 1; p.P.c_l1
    | Tc_llc -> cnt.llc <- cnt.llc + 1; p.P.c_llc
    | Tc_c2c_local -> cnt.c2c_local <- cnt.c2c_local + 1; p.P.c_c2c_local
    | Tc_c2c_remote -> cnt.c2c_remote <- cnt.c2c_remote + 1; p.P.c_c2c_remote
    | Tc_llc_remote -> cnt.llc_remote <- cnt.llc_remote + 1; p.P.c_llc_remote
    | Tc_mem -> cnt.mem <- cnt.mem + 1; p.P.c_mem
  in
  match kind with
  | Rmw ->
      cnt.rmw <- cnt.rmw + 1;
      lat + p.P.c_atomic
  | Read | Write -> lat

(* A transfer of a line dirty in [owner]'s cache. *)
let[@inline] c2c t cnt kind socket owner =
  if owner / t.cps = socket then serve t.plat cnt kind Tc_c2c_local
  else serve t.plat cnt kind Tc_c2c_remote

let access t cnt ~core:c ~socket:s kind line =
  let p = t.plat in
  let o = entry t line in
  let d = t.dir in
  let owner = d.(o) and bit = 1 lsl c in
  match kind with
  | Read when in_priv t c line && (owner = c || d.(o + 1) land bit <> 0) -> serve p cnt kind Tc_l1
  | Read ->
      let lat =
        if owner >= 0 then begin
          (* dirty elsewhere: cache-to-cache transfer; the owner demotes,
             or keeps the line Owned *)
          let lat = c2c t cnt kind s owner in
          if not t.victim then begin
            d.(o + 1) <- d.(o + 1) lor (1 lsl owner);
            d.(o) <- -1
          end;
          lat
        end
        else if in_llc t s line then serve p cnt kind Tc_llc
        else if in_remote_llc t s line then serve p cnt kind Tc_llc_remote
        else serve p cnt kind Tc_mem
      in
      d.(o + 1) <- d.(o + 1) lor bit;
      install_priv t c s line;
      fill t s line;
      lat
  | Write | Rmw ->
      let sharers = d.(o + 1) in
      let lat =
        if owner = c && in_priv t c line then serve p cnt kind Tc_l1
        else if owner >= 0 then c2c t cnt kind s owner
        else if sharers <> 0 || in_llc t s line then
          (* upgrade: invalidate sharers; pay more if any are remote *)
          if sharers land t.outside.(s) <> 0 || (t.victim && in_remote_llc t s line) then
            serve p cnt kind Tc_llc_remote
          else serve p cnt kind Tc_llc
        else serve p cnt kind Tc_mem
      in
      (* Invalidate every other copy; this write owns the line. *)
      d.(o + 1) <- 0;
      d.(o) <- c;
      install_priv t c s line;
      if t.victim then
        for os = 0 to p.P.sockets - 1 do
          if in_llc t os line then set_tag t.llc_tags os t.llc_mask (line land t.llc_mask) (-1)
        done
      else install_llc t s line;
      lat

let txn_conflict t ~core line =
  let owner = t.dir.(entry t line) in
  owner >= 0 && owner <> core

let txn_line_cost t ~core line = if in_priv t core line then t.plat.P.c_l1 else t.plat.P.c_llc

let txn_commit t ~core ~socket line =
  let o = entry t line in
  t.dir.(o + 1) <- 0;
  t.dir.(o) <- core;
  install_priv t core socket line;
  fill t socket line

(* Install every allocated line into every socket's LLC: first accesses
   pay LLC latency, not DRAM, and private caches still start cold (a
   victim LLC has absorbed a long run's evictions by then). *)
let warm t ~nlines =
  for line = 0 to nlines - 1 do
    for s = 0 to t.plat.P.sockets - 1 do
      install_llc t s line
    done
  done
