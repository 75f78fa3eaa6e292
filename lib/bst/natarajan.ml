(** Natarajan & Mittal's lock-free external BST (Table 1 "natarajan";
    PPoPP 2014, "Fast Concurrent Lock-free Binary Search Trees").

    The algorithm that minimizes atomic operations per update (~2 for a
    removal) by placing its marks on {e edges} (child pointers) rather
    than nodes, and by parsing optimistically with no helping on the
    search path.  A removal (1) flags the parent->leaf edge, (2) tags the
    parent->sibling edge so it cannot change, then (3) swings the
    grandparent edge to the sibling with one CAS, carrying over the
    sibling edge's flag bit so an in-progress removal of the sibling
    survives the move.  Insertions are a single CAS on a clean edge.
    Failed CASes help complete the interfering removal, then retry.

    Edge state lives in an immutable [edge] record ({i flag}, {i tag},
    target) swapped by physical-equality CAS — the OCaml rendering of the
    paper's pointer-stealing bits. *)

module Make (Mem : Ascy_mem.Memory.S) = struct
  module S = Ascy_ssmem.Ssmem.Make (Mem)
  module E = Ascy_mem.Event

  let inf1 = max_int - 1
  let inf2 = max_int

  type 'v node =
    | Leaf of { key : int; value : 'v option; line : Mem.line }
    | Router of 'v router

  and 'v router = { key : int; line : Mem.line; left : 'v edge Mem.r; right : 'v edge Mem.r }

  and 'v edge = { flag : bool; tag : bool; target : 'v node }

  type 'v t = { root : 'v router; ssmem : S.t }

  let name = "bst-natarajan"

  let clean target = { flag = false; tag = false; target }

  let mk_leaf key value =
    let line = Mem.new_line () in
    Leaf { key; value; line }

  let mk_router key left right =
    let line = Mem.new_line () in
    { key; line; left = Mem.make line (clean left); right = Mem.make line (clean right) }

  let create ?hint:_ ?read_only_fail:_ () =
    let s = mk_router inf1 (mk_leaf inf1 None) (mk_leaf inf2 None) in
    {
      root = mk_router inf2 (Router s) (mk_leaf inf2 None);
      ssmem = S.create ();
    }

  let child_cell (r : 'v router) k = if k < r.key then r.left else r.right

  (* Optimistic parse: grandparent, parent, and the leaf's edge as read. *)
  let seek t k =
    let rec go (g : 'v router) (p : 'v router) =
      let e = Mem.get (child_cell p k) in
      match e.target with
      | Leaf l ->
          Mem.touch l.line;
          (g, p, e)
      | Router r ->
          Mem.touch r.line;
          go p r
    in
    match (Mem.get (child_cell t.root k)).target with
    | Router r -> go t.root r
    | Leaf _ -> assert false (* sentinels guarantee depth >= 2 *)

  (* ASCY1-style search: pure descent, no stores, no retries. *)
  let search t k =
    let rec go (p : 'v router) =
      match (Mem.get (child_cell p k)).target with
      | Leaf l ->
          Mem.touch l.line;
          if l.key = k then l.value else None
      | Router r ->
          Mem.touch r.line;
          go r
    in
    go t.root

  (* Complete the removal whose flag sits on the [victim_left] edge of
     [p]: tag the sibling edge, then swing [g]'s edge from [p] to the
     sibling, inheriting the sibling edge's flag bit.  Returns true iff
     this call performed the swing. *)
  let cleanup t (g : 'v router) (p : 'v router) ~victim_left =
    let victim_cell = if victim_left then p.left else p.right in
    let sib_cell = if victim_left then p.right else p.left in
    let ve = Mem.get victim_cell in
    if not ve.flag then false (* nothing to help *)
    else begin
      (* tag the sibling edge (preserving its flag) so it freezes *)
      let rec tag () =
        let se = Mem.get sib_cell in
        if se.tag then se
        else if Mem.cas sib_cell se { se with tag = true } then { se with tag = true }
        else begin
          Mem.emit E.cas_fail;
          tag ()
        end
      in
      let se = tag () in
      (* swing the grandparent edge (located by identity, as the original
         algorithm does with recorded addresses); inherit the sibling's
         flag *)
      let gcell =
        if match (Mem.get g.left).target with Router r -> r == p | Leaf _ -> false then g.left
        else g.right
      in
      let ge = Mem.get gcell in
      if (match ge.target with Router r -> r == p | Leaf _ -> false) && not ge.tag && not ge.flag
      then begin
        if Mem.cas gcell ge { flag = se.flag; tag = false; target = se.target } then begin
          S.free t.ssmem p;
          S.free t.ssmem ve.target;
          true
        end
        else begin
          Mem.emit E.cas_fail;
          false
        end
      end
      else false
    end

  let insert t k v =
    let rec attempt () =
      Mem.emit E.parse;
      let g, p, e = seek t k in
      match e.target with
      | Leaf l when l.key = k -> false (* ASCY3: no stores on failure *)
      | Leaf l as lf ->
          if e.flag || e.tag then begin
            (* an unfinished removal is parked here: help, then retry.
               A flag on our edge means our leaf is the victim; a tag
               means the victim is on p's other side. *)
            Mem.emit E.help;
            ignore (cleanup t g p ~victim_left:(if e.flag then k < p.key else k >= p.key));
            attempt ()
          end
          else begin
            Mem.emit E.parse_end;
            let nl = mk_leaf k (Some v) in
            let r = if k < l.key then mk_router l.key nl lf else mk_router k lf nl in
            if Mem.cas (child_cell p k) e (clean (Router r)) then true
            else begin
              Mem.emit E.cas_fail;
              attempt ()
            end
          end
      | Router _ -> assert false
    in
    attempt ()

  let remove t k =
    (* phase 1: claim the leaf by flagging its incoming edge *)
    let rec claim () =
      Mem.emit E.parse;
      let g, p, e = seek t k in
      match e.target with
      | Leaf l when l.key = k ->
          if e.flag || e.tag then begin
            (* an unfinished removal is parked here: help it, then retry.
               A flag means another remove owns our leaf, which stays
               reachable (present to searches and inserts) until it is
               detached; a tag means our side is the frozen sibling of a
               removal on p's other side *)
            Mem.emit E.help;
            ignore (cleanup t g p ~victim_left:(if e.flag then k < p.key else k >= p.key));
            claim ()
          end
          else begin
            Mem.emit E.parse_end;
            if Mem.cas (child_cell p k) e { e with flag = true } then Some (g, p, e.target)
            else begin
              Mem.emit E.cas_fail;
              claim ()
            end
          end
      | _ -> None
    in
    match claim () with
    | None -> false
    | Some (g, p, mine) ->
        (* phase 2: detach; keep helping through fresh parses until our
           leaf is no longer reachable *)
        let rec detach g p =
          if not (cleanup t g p ~victim_left:(k < p.key)) then begin
            (* a fresh parse either still reaches our claimed leaf (retry
               with up-to-date coordinates) or proves it detached: no two
               leaves with the same key can be reachable at once *)
            let g', p', e = seek t k in
            if e.target == mine then detach g' p'
          end
        in
        detach g p;
        true

  let size t =
    let rec go = function
      | Leaf l -> if l.value = None then 0 else 1
      | Router r -> go (Mem.get r.left).target + go (Mem.get r.right).target
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
            match go (Mem.get r.left).target lo r.key with
            | Error _ as e -> e
            | Ok () -> go (Mem.get r.right).target r.key hi)
    in
    go (Router t.root) min_int max_int

  let op_done t = S.quiesce t.ssmem
end
