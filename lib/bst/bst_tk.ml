(** BST-TK — BST Ticket (paper §6.2; one of the two algorithms designed
    from scratch with ASCY).

    An external tree whose router nodes carry two small ticket locks
    packed in one word ({!Ascy_locks.Ticket_pair}), one per child edge.
    The parse phase records edge versions on the way down; acquiring a
    lock {e at that version} is simultaneously the validation (Figure 10
    consolidates validate+lock).  A successful insertion acquires one
    lock (the parent edge toward the leaf); a successful removal acquires
    two (both parent edges with one CAS, plus the grandparent edge).
    Unsuccessful updates store nothing (ASCY3); searches are sequential
    (ASCY1). *)

module Make (Mem : Ascy_mem.Memory.S) = struct
  module Tp = Ascy_locks.Ticket_pair.Make (Mem)
  module S = Ascy_ssmem.Ssmem.Make (Mem)
  module E = Ascy_mem.Event

  let inf1 = max_int - 1
  let inf2 = max_int

  type 'v node =
    | Leaf of { key : int; value : 'v option; line : Mem.line }
    | Router of 'v router

  and 'v router = {
    key : int;
    line : Mem.line;
    left : 'v node Mem.r;
    right : 'v node Mem.r;
    locks : Tp.t;
  }

  type 'v t = { root : 'v router; ssmem : S.t }

  let name = "bst-tk"

  let mk_leaf key value =
    let line = Mem.new_line () in
    Leaf { key; value; line }

  let mk_router key left right =
    let line = Mem.new_line () in
    { key; line; left = Mem.make line left; right = Mem.make line right; locks = Tp.create line }

  let create ?hint:_ ?read_only_fail:_ () =
    let s = mk_router inf1 (mk_leaf inf1 None) (mk_leaf inf2 None) in
    {
      root = mk_router inf2 (Router s) (mk_leaf inf2 None);
      ssmem = S.create ();
    }

  let side_for (r : 'v router) k : Tp.side = if k < r.key then Tp.L else Tp.R
  let child (r : 'v router) k = if k < r.key then r.left else r.right
  let other_child (r : 'v router) k = if k < r.key then r.right else r.left

  (* Parse down to the leaf; record the grandparent, its version on the
     edge toward the parent, the parent, and both parent edge versions
     (read before reading the child pointer, so a concurrent update is
     caught at lock time). *)
  let seek t k =
    let rec go (g : 'v router) gv (p : 'v router) =
      let pvl, pvr = Tp.versions p.locks in
      match Mem.get (child p k) with
      | Leaf l as lf ->
          Mem.touch l.line;
          (g, gv, p, pvl, pvr, lf)
      | Router r ->
          Mem.touch r.line;
          go p (if k < p.key then pvl else pvr) r
    in
    let v0 = Tp.version t.root.locks (side_for t.root k) in
    match Mem.get (child t.root k) with
    | Router r -> go t.root v0 r
    | Leaf _ -> assert false (* sentinel structure guarantees depth >= 2 *)

  let search t k =
    let rec go (p : 'v router) =
      match Mem.get (child p k) with
      | Leaf l ->
          Mem.touch l.line;
          if l.key = k then l.value else None
      | Router r ->
          Mem.touch r.line;
          go r
    in
    go t.root

  let insert t k v =
    let rec attempt () =
      Mem.emit E.parse;
      let _, _, p, pvl, pvr, lf = seek t k in
      Mem.emit E.parse_end;
      match lf with
      | Leaf l when l.key = k -> false (* ASCY3: read-only failure *)
      | Leaf l ->
          let side = side_for p k in
          let ver = match side with Tp.L -> pvl | Tp.R -> pvr in
          if not (Tp.try_acquire_version p.locks side ver) then begin
            Mem.emit E.restart;
            attempt ()
          end
          else begin
            let nl = mk_leaf k (Some v) in
            let r = if k < l.key then mk_router l.key nl lf else mk_router k lf nl in
            Mem.set (child p k) (Router r);
            Tp.release p.locks side;
            true
          end
      | Router _ -> assert false
    in
    attempt ()

  let remove t k =
    let rec attempt () =
      Mem.emit E.parse;
      let g, gv, p, pvl, pvr, lf = seek t k in
      Mem.emit E.parse_end;
      match lf with
      | Leaf l when l.key = k ->
          let gside = side_for g k in
          if not (Tp.try_acquire_version g.locks gside gv) then begin
            Mem.emit E.restart;
            attempt ()
          end
          else if not (Tp.try_acquire_both p.locks pvl pvr) then begin
            Tp.release g.locks gside;
            Mem.emit E.restart;
            attempt ()
          end
          else begin
            (* both of p's edges are frozen: the sibling cannot change *)
            let sibling = Mem.get (other_child p k) in
            Mem.set (child g k) sibling;
            Tp.release g.locks gside;
            (* p stays locked forever: it is retired, and stragglers that
               parsed through it must fail validation and restart *)
            S.free t.ssmem p;
            S.free t.ssmem lf;
            true
          end
      | _ -> false (* ASCY3 *)
    in
    attempt ()

  let size t =
    let rec go = function
      | Leaf l -> if l.value = None then 0 else 1
      | Router r -> go (Mem.get r.left) + go (Mem.get r.right)
    in
    go (Router t.root)

  let validate t =
    let rec go nd lo hi =
      match nd with
      | Leaf l ->
          if l.value <> None && not (l.key >= lo && l.key < hi) then
            Error "leaf key outside router bounds"
          else Ok ()
      | Router r ->
          if not (r.key > lo && r.key <= hi) then Error "router key outside bounds"
          else (
            match go (Mem.get r.left) lo r.key with
            | Error _ as e -> e
            | Ok () -> go (Mem.get r.right) r.key hi)
    in
    go (Router t.root) min_int max_int

  let op_done t = S.quiesce t.ssmem
end
