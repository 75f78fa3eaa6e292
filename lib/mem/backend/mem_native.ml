(** Native implementation of {!Memory.S} on OCaml 5 atomics and domains.

    Cache lines are not modeled ([line = unit] and [touch]/[work] are
    no-ops).  Thread ids are dense indices assigned on first use per
    domain.  Algorithm-level events are not counted: [emit] is a no-op,
    and event counts come from the simulator ({!Sim}).

    {2 Cells}

    A cell is one block, [{ kdx_v; kdx_id }].  Field 0 holds either the
    plain value itself or a published piece of an in-flight multi-word
    CAS, and is read and CASed as an [Atomic.t]: [%atomic_load] and
    [%atomic_cas] act on field 0 of any block, so {!kdx_atomic} views the
    cell as one.  A plain [get] is one load and the descriptor check
    below; [set], [cas] and [fetch_and_add] allocate nothing.  This is
    how PathCAS (Brown, Sigouin & Alistarh, 2022) lays out its words:
    plain values raw, descriptors marked.

    {2 Descriptors and the mark}

    The published pieces are two tag-0 records, a k-CAS entry
    ({!kdx_entry}, 5 fields) and an RDCSS sub-descriptor ({!kdx_rd}, 2
    fields).  Field 0 of each is {!kdx_mark}, a block allocated once
    here and never handed to a caller.  A value [v] is a descriptor iff
    [Obj.is_block v && Obj.size v >= 1], its field 0 is physically
    [kdx_mark], and [Obj.tag v = 0]; the two kinds differ in size.

    Soundness: a caller's value is never one of ours.  The mark is not
    exported ([mem_native.mli]), [get] never returns a descriptor and
    [kcas_op] builds a record whose field 0 is the cell, so no caller
    can build a tag-0 block whose field 0 is the mark.  Blocks of other
    tags (floats, float arrays, strings, custom blocks, closures) may
    hold raw bits in field 0 that happen to equal the mark's address;
    the tag test rejects them.  It runs only after the field-0 match,
    because [Obj.tag] is a C call.  The size test keeps [[||]], a
    size-0 atom, from being read past its header.

    {2 The multi-word CAS}

    {!Memory.S.kcas} is lock-free in the style of Harris, Fraser & Pratt,
    "A practical multi-word compare-and-swap operation" (DISC 2002).
    Any thread that runs into a descriptor {e helps} finish it, so a
    committer that stalls (or dies) mid-commit never blocks the others.
    - {e acquire} (phase 1): for each entry, in ascending cell-id order
      (which bounds recursive helping — a cycle would need two
      descriptors each holding a cell the other acquired later in the
      same order), an RDCSS conditionally installs the entry: the
      sub-descriptor only resolves to the entry while the status is
      still [Kdx_undecided], and otherwise restores the raw value it
      replaced (physically the entry's expected value), so no entry can
      be acquired after the descriptor was decided.  A non-expected
      value decides failure.
    - {e decide}: one CAS on the status — the linearization point.
    - {e release} (phase 2): each acquired cell is CASed from the entry
      to the desired (success) or expected (failure) value.

    All descriptor internals carry the [kdx_] prefix: [ascy_lint]'s
    rule C confines that prefix to the two backend files, so CSDS code
    can only reach k-CAS through [Memory.S.kcas]. *)

let max_threads_limit = 512

let next_id = Atomic.make 0

let key : int Domain.DLS.key =
  Domain.DLS.new_key (fun () ->
      let id = Atomic.fetch_and_add next_id 1 in
      if id >= max_threads_limit then failwith "Mem_native: too many threads";
      id)

type line = unit

let new_line () = ()

(* [kdx_v] is only ever accessed through [kdx_atomic]. *)
type kdx_cell = { mutable kdx_v : Obj.t; kdx_id : int }

type 'a r = kdx_cell

type kdx_status = Kdx_undecided | Kdx_succeeded | Kdx_failed

(* [kdx_entries] is filled in before the descriptor is published. *)
type kdx_desc = { kdx_st : kdx_status Atomic.t; mutable kdx_entries : kdx_entry array }

and kdx_entry = {
  kdx_emark : Obj.t;  (** [kdx_mark] *)
  kdx_d : kdx_desc;
  kdx_c : kdx_cell;
  kdx_exp : Obj.t;
  kdx_des : Obj.t;
}

type kdx_rd = { kdx_rmark : Obj.t;  (** [kdx_mark] *) kdx_rd_e : kdx_entry }

let kdx_mark : Obj.t = Obj.repr (ref ())

let[@inline] kdx_atomic (c : kdx_cell) : Obj.t Atomic.t = Obj.magic c

(* Field 0 read as a plain load: [Obj.field] would test for a float
   array first.  No allocation or poll point separates the load from the
   comparison, so raw bits from a non-scanned block are never seen by
   the GC. *)
type kdx_probe = { kdx_f0 : Obj.t }

let[@inline] kdx_is_desc v =
  Obj.is_block v
  && Obj.size v >= 1
  && (Obj.obj v : kdx_probe).kdx_f0 == kdx_mark
  && Obj.tag v = 0

let kdx_next_cell = Atomic.make 0

let make () v = { kdx_v = Obj.repr v; kdx_id = Atomic.fetch_and_add kdx_next_cell 1 }
let make_fresh v = make () v

(* Resolve an RDCSS sub-descriptor found in its cell: install the entry
   if the descriptor is still undecided, otherwise restore the expected
   value it replaced.  The CAS expects this very sub-descriptor (one is
   allocated per attempt), so a helper who lost the race is a harmless
   no-op. *)
let kdx_complete (rd : kdx_rd) =
  let e = rd.kdx_rd_e in
  let next = if Atomic.get e.kdx_d.kdx_st = Kdx_undecided then Obj.repr e else e.kdx_exp in
  ignore (Atomic.compare_and_set (kdx_atomic e.kdx_c) (Obj.repr rd) next)

(* Test-only; see the interface. *)
let kdx_acquire_hook : (int -> unit) ref = ref (fun _ -> ())

exception Kdx_done of kdx_status

(* Run [d] to completion (any thread may call this on any descriptor it
   encounters); returns the final status. *)
let rec kdx_help (d : kdx_desc) : kdx_status =
  let entries = d.kdx_entries in
  let proposed =
    try
      for i = 0 to Array.length entries - 1 do
        let e = entries.(i) in
        let cell = kdx_atomic e.kdx_c in
        let rec acquire () =
          if Atomic.get d.kdx_st <> Kdx_undecided then raise (Kdx_done (Atomic.get d.kdx_st));
          let cur = Atomic.get cell in
          if cur == Obj.repr e then () (* acquired (maybe by a helper) *)
          else if kdx_is_desc cur then begin
            kdx_resolve cur;
            acquire ()
          end
          else if cur != e.kdx_exp then raise (Kdx_done Kdx_failed)
          else begin
            let rd = { kdx_rmark = kdx_mark; kdx_rd_e = e } in
            if Atomic.compare_and_set cell cur (Obj.repr rd) then kdx_complete rd;
            (* re-check: the sub-descriptor resolved to the entry, or
               was rolled back because the status was decided *)
            acquire ()
          end
        in
        acquire ();
        !kdx_acquire_hook (i + 1)
      done;
      Kdx_succeeded
    with Kdx_done s -> s
  in
  ignore (Atomic.compare_and_set d.kdx_st Kdx_undecided proposed);
  let final = Atomic.get d.kdx_st in
  (* release every cell still publishing this descriptor *)
  Array.iter
    (fun e ->
      let cell = kdx_atomic e.kdx_c in
      if Atomic.get cell == Obj.repr e then
        ignore
          (Atomic.compare_and_set cell (Obj.repr e)
             (if final = Kdx_succeeded then e.kdx_des else e.kdx_exp)))
    entries;
  final

(* Get descriptor [v] out of the way: finish the k-CAS an entry belongs
   to, or resolve a sub-descriptor. *)
and kdx_resolve v =
  if Obj.size v = 2 then kdx_complete (Obj.obj v : kdx_rd)
  else ignore (kdx_help (Obj.obj v : kdx_entry).kdx_d)

(* The logical value of a cell that holds descriptor [v].  An entry is
   peeked through (the read linearizes before or after the commit); a
   sub-descriptor is resolved first. *)
let rec kdx_read c v =
  if Obj.size v = 2 then begin
    kdx_complete (Obj.obj v : kdx_rd);
    let v = Atomic.get (kdx_atomic c) in
    if kdx_is_desc v then kdx_read c v else v
  end
  else
    let e : kdx_entry = Obj.obj v in
    match Atomic.get e.kdx_d.kdx_st with
    | Kdx_succeeded -> e.kdx_des
    | Kdx_undecided | Kdx_failed -> e.kdx_exp

let get (c : 'a r) : 'a =
  let v = Atomic.get (kdx_atomic c) in
  if kdx_is_desc v then Obj.obj (kdx_read c v) else Obj.obj v

let rec set (c : 'a r) (v : 'a) =
  let cell = kdx_atomic c in
  let cur = Atomic.get cell in
  if kdx_is_desc cur then begin
    kdx_resolve cur;
    set c v
  end
  else if not (Atomic.compare_and_set cell cur (Obj.repr v)) then set c v

let rec cas (c : 'a r) (expected : 'a) (desired : 'a) =
  let cell = kdx_atomic c in
  let cur = Atomic.get cell in
  if kdx_is_desc cur then begin
    kdx_resolve cur;
    cas c expected desired
  end
  else if cur != Obj.repr expected then false
  else Atomic.compare_and_set cell cur (Obj.repr desired) || cas c expected desired

let rec fetch_and_add (c : int r) n =
  let cell = kdx_atomic c in
  let cur = Atomic.get cell in
  if kdx_is_desc cur then begin
    kdx_resolve cur;
    fetch_and_add c n
  end
  else
    let v : int = Obj.obj cur in
    if Atomic.compare_and_set cell cur (Obj.repr (v + n)) then v else fetch_and_add c n

(* Field 0 is the cell, never [kdx_mark]: an op stored in a cell is a
   plain value. *)
type kcas_op = { kdx_oc : kdx_cell; kdx_oexp : Obj.t; kdx_odes : Obj.t }

let kcas_op (r : 'a r) ~(expected : 'a) ~(desired : 'a) : kcas_op =
  { kdx_oc = r; kdx_oexp = Obj.repr expected; kdx_odes = Obj.repr desired }

let kcas = function
  | [] -> true
  | [ o ] -> cas o.kdx_oc o.kdx_oexp o.kdx_odes
  | ops ->
      let ops = Array.of_list ops in
      Array.sort (fun a b -> compare a.kdx_oc.kdx_id b.kdx_oc.kdx_id) ops;
      for i = 1 to Array.length ops - 1 do
        if ops.(i - 1).kdx_oc == ops.(i).kdx_oc then invalid_arg "Memory.kcas: duplicate cell"
      done;
      let d = { kdx_st = Atomic.make Kdx_undecided; kdx_entries = [||] } in
      d.kdx_entries <-
        Array.map
          (fun o ->
            { kdx_emark = kdx_mark; kdx_d = d; kdx_c = o.kdx_oc; kdx_exp = o.kdx_oexp; kdx_des = o.kdx_odes })
          ops;
      kdx_help d = Kdx_succeeded

let touch () = ()
let work (_ : int) = ()
let cpu_relax = Domain.cpu_relax

(* The standard library has no [sched_yield]; a short sleep leaves the
   core to the descheduled thread the spinner waits for. *)
let yield_cpu () = Unix.sleepf 1e-6

let self () = Domain.DLS.get key
let max_threads () = max_threads_limit
let emit (_ : int) = ()
let txn _f = None (* no HTM on stock OCaml; callers use their lock path *)
