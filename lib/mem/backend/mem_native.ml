(** Native implementation of {!Memory.S} on OCaml 5 atomics and domains.

    Cache lines are not modeled ([line = unit] and [touch]/[work] are
    no-ops).  Thread ids are dense indices assigned on first use per
    domain.  Algorithm-level events are not counted: [emit] is a no-op,
    and event counts come from the simulator ({!Sim}).

    Cells are one indirection richer than a bare [Atomic.t] so that
    {!Memory.S.kcas} can be lock-free: a cell holds either a plain value
    ([Kdx_v]) or a published piece of an in-flight multi-word CAS — a
    k-CAS descriptor entry ([Kdx_k]) or an RDCSS sub-descriptor
    ([Kdx_r]), in the style of Harris, Fraser & Pratt, "A practical
    multi-word compare-and-swap operation" (DISC 2002).  Any thread that
    runs into a descriptor {e helps} finish it, so a committer that
    stalls (or dies) mid-commit never blocks the others.

    The two-phase protocol:
    - {e acquire} (phase 1): for each entry, in ascending cell-id order
      (which bounds recursive helping — a cycle would need two
      descriptors each holding a cell the other acquired later in the
      same order), an RDCSS conditionally installs the descriptor: the
      sub-descriptor only resolves to the descriptor while its status is
      still [Kdx_undecided], so no entry can be acquired after the
      descriptor was already decided.  A non-expected value decides
      failure.
    - {e decide}: one CAS on the status — the linearization point.
    - {e release} (phase 2): each acquired cell is CASed from the
      descriptor to the desired (success) or expected (failure) value.

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

type kdx_status = Kdx_undecided | Kdx_succeeded | Kdx_failed

type 'a content =
  | Kdx_v of 'a  (** a plain value *)
  | Kdx_k of kdx_desc * 'a * 'a  (** descriptor, expected, desired *)
  | Kdx_r of kdx_rd  (** RDCSS sub-descriptor (conditional install) *)

and kdx_desc = { kdx_st : kdx_status Atomic.t; kdx_entries : kdx_entry array }

and kdx_entry = Kdx_e : { kdx_c : 'a r; kdx_exp : 'a; kdx_des : 'a } -> kdx_entry

and kdx_rd =
  | Kdx_rd : {
      kdx_rd_desc : kdx_desc;
      kdx_rd_cell : 'a r;
      kdx_rd_old : 'a content;  (** the witnessed [Kdx_v] box to restore *)
      kdx_rd_new : 'a content;  (** the [Kdx_k] box to install *)
    }
      -> kdx_rd

and 'a r = { kdx_id : int; kdx_cell : 'a content Atomic.t }

let kdx_next_cell = Atomic.make 0

let make () v = { kdx_id = Atomic.fetch_and_add kdx_next_cell 1; kdx_cell = Atomic.make (Kdx_v v) }
let make_fresh v = make () v

(* Resolve an RDCSS sub-descriptor found in its cell: install the k-CAS
   descriptor if it is still undecided, otherwise restore the witnessed
   value.  The CAS expects the exact content box we just read, so a
   helper who lost the race is a harmless no-op. *)
let kdx_complete (rd : kdx_rd) =
  match rd with
  | Kdx_rd r -> (
      match Atomic.get r.kdx_rd_cell.kdx_cell with
      | Kdx_r rd' as cur when rd' == rd ->
          let next =
            if Atomic.get r.kdx_rd_desc.kdx_st = Kdx_undecided then r.kdx_rd_new
            else r.kdx_rd_old
          in
          ignore (Atomic.compare_and_set r.kdx_rd_cell.kdx_cell cur next)
      | _ -> ())

(** Test-only: called after each successful phase-1 acquisition with the
    number of entries acquired so far.  The helping unit test raises out
    of it to model a committer crash-stopped mid-commit, then lets an
    ordinary access finish the descriptor. *)
let kdx_acquire_hook : (int -> unit) ref = ref (fun _ -> ())

exception Kdx_done of kdx_status

(* Run [d] to completion (any thread may call this on any descriptor it
   encounters); returns the final status. *)
let rec kdx_help (d : kdx_desc) : kdx_status =
  let n = Array.length d.kdx_entries in
  let proposed =
    try
      for i = 0 to n - 1 do
        (match d.kdx_entries.(i) with
        | Kdx_e e ->
        let rec acquire () =
          if Atomic.get d.kdx_st <> Kdx_undecided then raise (Kdx_done (Atomic.get d.kdx_st));
          match Atomic.get e.kdx_c.kdx_cell with
          | Kdx_k (d', _, _) when d' == d -> () (* acquired (maybe by a helper) *)
          | Kdx_k (d', _, _) ->
              ignore (kdx_help d');
              acquire ()
          | Kdx_r rd ->
              kdx_complete rd;
              acquire ()
          | Kdx_v v as witnessed ->
              if v != e.kdx_exp then raise (Kdx_done Kdx_failed);
              let rd =
                Kdx_rd
                  {
                    kdx_rd_desc = d;
                    kdx_rd_cell = e.kdx_c;
                    kdx_rd_old = witnessed;
                    kdx_rd_new = Kdx_k (d, e.kdx_exp, e.kdx_des);
                  }
              in
              if Atomic.compare_and_set e.kdx_c.kdx_cell witnessed (Kdx_r rd) then
                kdx_complete rd;
              (* re-check: the sub-descriptor resolved to the descriptor,
                 or was rolled back because the status was decided *)
              acquire ()
        in
        acquire ());
        !kdx_acquire_hook (i + 1)
      done;
      Kdx_succeeded
    with Kdx_done s -> s
  in
  ignore (Atomic.compare_and_set d.kdx_st Kdx_undecided proposed);
  let final = Atomic.get d.kdx_st in
  (* release every cell still publishing this descriptor *)
  Array.iter
    (fun entry ->
      match entry with
      | Kdx_e e ->
          let rec release () =
            match Atomic.get e.kdx_c.kdx_cell with
            | Kdx_k (d', _, _) as cur when d' == d ->
                let out = if final = Kdx_succeeded then Kdx_v e.kdx_des else Kdx_v e.kdx_exp in
                if not (Atomic.compare_and_set e.kdx_c.kdx_cell cur out) then release ()
            | _ -> ()
          in
          release ())
    d.kdx_entries;
  final

(* Read the cell's logical value.  A decided/undecided descriptor entry
   is peeked through (the read linearizes before or after the commit);
   an RDCSS sub-descriptor is completed first, because its witnessed
   value is existentially typed away. *)
let rec get r =
  match Atomic.get r.kdx_cell with
  | Kdx_v v -> v
  | Kdx_k (d, exp, des) -> (
      match Atomic.get d.kdx_st with Kdx_succeeded -> des | Kdx_undecided | Kdx_failed -> exp)
  | Kdx_r rd ->
      kdx_complete rd;
      get r

let rec set r v =
  match Atomic.get r.kdx_cell with
  | Kdx_v _ as cur -> if not (Atomic.compare_and_set r.kdx_cell cur (Kdx_v v)) then set r v
  | Kdx_k (d, _, _) ->
      ignore (kdx_help d);
      set r v
  | Kdx_r rd ->
      kdx_complete rd;
      set r v

let rec cas r expected desired =
  match Atomic.get r.kdx_cell with
  | Kdx_v v as cur ->
      if v != expected then false
      else if Atomic.compare_and_set r.kdx_cell cur (Kdx_v desired) then true
      else cas r expected desired
  | Kdx_k (d, _, _) ->
      ignore (kdx_help d);
      cas r expected desired
  | Kdx_r rd ->
      kdx_complete rd;
      cas r expected desired

let rec fetch_and_add r n =
  match Atomic.get r.kdx_cell with
  | Kdx_v v as cur ->
      if Atomic.compare_and_set r.kdx_cell cur (Kdx_v (v + n)) then v else fetch_and_add r n
  | Kdx_k (d, _, _) ->
      ignore (kdx_help d);
      fetch_and_add r n
  | Kdx_r rd ->
      kdx_complete rd;
      fetch_and_add r n

type kcas_op = kdx_entry

let kcas_op (type a) (r : a r) ~(expected : a) ~(desired : a) : kcas_op =
  Kdx_e { kdx_c = r; kdx_exp = expected; kdx_des = desired }

let kcas = function
  | [] -> true
  | [ Kdx_e e ] -> cas e.kdx_c e.kdx_exp e.kdx_des
  | ops ->
      let entries = Array.of_list ops in
      let id_of entry = match entry with Kdx_e e -> e.kdx_c.kdx_id in
      Array.sort (fun a b -> compare (id_of a) (id_of b)) entries;
      for i = 1 to Array.length entries - 1 do
        if id_of entries.(i - 1) = id_of entries.(i) then
          invalid_arg "Memory.kcas: duplicate cell"
      done;
      let d = { kdx_st = Atomic.make Kdx_undecided; kdx_entries = entries } in
      kdx_help d = Kdx_succeeded

let touch () = ()
let work (_ : int) = ()
let cpu_relax = Domain.cpu_relax
let self () = Domain.DLS.get key
let max_threads () = max_threads_limit
let emit (_ : int) = ()
let txn _f = None (* no HTM on stock OCaml; callers use their lock path *)
