(** Ellen, Fatourou, Ruppert & van Breugel's non-blocking external BST
    (Table 1 "ellen"; PODC 2010).

    Each internal node carries an [update] field: a state (clean /
    insert-flagged / delete-flagged / marked) plus a pointer to an info
    record describing the pending operation.  Updates flag the nodes they
    intend to modify and {e help} any pending operation they encounter —
    the helping overhead the paper contrasts with natarajan's design.

    Insert: flag parent (IFlag) -> CAS the child edge -> unflag.
    Delete: flag grandparent (DFlag) -> mark parent -> CAS grandparent's
    child edge to the sibling -> unflag; a failed mark backtracks
    (unflags the grandparent) and retries. *)

module Make (Mem : Ascy_mem.Memory.S) = struct
  module S = Ascy_ssmem.Ssmem.Make (Mem)
  module E = Ascy_mem.Event

  let inf1 = max_int - 1
  let inf2 = max_int

  type 'v node =
    | Leaf of { key : int; value : 'v option; line : Mem.line }
    | Internal of 'v internal

  and 'v internal = {
    key : int;
    line : Mem.line;
    left : 'v node Mem.r;
    right : 'v node Mem.r;
    update : 'v update Mem.r;
  }

  (* The update field is never the same block twice: completed
     operations leave a unique [IDone]/[DDone] state behind (the paper's
     info-pointer-with-state-bits), which is what protects the flag
     CASes from ABA. *)
  and 'v update =
    | Init
    | IFlag of 'v iinfo
    | DFlag of 'v dinfo
    | Mark of 'v dinfo
    | IDone of 'v iinfo
    | DDone of 'v dinfo

  and 'v iinfo = { ip : 'v internal; inew : 'v internal; il : 'v node }

  and 'v dinfo = { dg : 'v internal; dp : 'v internal; dl : 'v node; pupdate : 'v update }

  type 'v t = { root : 'v internal; ssmem : S.t }

  let name = "bst-ellen"

  let mk_leaf key value =
    let line = Mem.new_line () in
    Leaf { key; value; line }

  let mk_internal key left right =
    let line = Mem.new_line () in
    {
      key;
      line;
      left = Mem.make line left;
      right = Mem.make line right;
      update = Mem.make line Init;
    }

  let create ?hint:_ ?read_only_fail:_ () =
    let s = mk_internal inf1 (mk_leaf inf1 None) (mk_leaf inf2 None) in
    {
      root = mk_internal inf2 (Internal s) (mk_leaf inf2 None);
      ssmem = S.create ();
    }

  let child_cell (n : 'v internal) k = if k < n.key then n.left else n.right

  (* CAS-replace the child of [p] matched by [is_old] with [nw] (the
     paper's ichild / dchild CAS).  The expected value must be the block
     actually stored in the cell — a freshly allocated [Internal _]
     wrapper would never be physically equal — so we read the cell and
     CAS against that exact read. *)
  let cas_child (p : 'v internal) ~is_old nw =
    let l = Mem.get p.left in
    if is_old l then ignore (Mem.cas p.left l nw)
    else begin
      let r = Mem.get p.right in
      if is_old r then ignore (Mem.cas p.right r nw)
    end

  let is_clean = function
    | Init | IDone _ | DDone _ -> true
    | IFlag _ | DFlag _ | Mark _ -> false

  (* help_insert: finish the ichild CAS and unflag.  [u] must be the
     stored IFlag block (CAS uses physical equality); the new state is a
     fresh unique block, preventing ABA on later flag CASes. *)
  let help_insert (u : 'v update) (op : 'v iinfo) =
    cas_child op.ip ~is_old:(fun nd -> nd == op.il) (Internal op.inew);
    ignore (Mem.cas op.ip.update u (IDone op))

  (* help_marked: the parent is marked; swing the grandparent's edge to
     the sibling of the deleted leaf and unflag the grandparent. *)
  let help_marked t (op : 'v dinfo) =
    let sibling =
      let l = Mem.get op.dp.left in
      if l == op.dl then Mem.get op.dp.right else l
    in
    cas_child op.dg
      ~is_old:(fun nd -> match nd with Internal i -> i == op.dp | Leaf _ -> false)
      sibling;
    (* unflag against the stored DFlag block for this very operation *)
    match Mem.get op.dg.update with
    | DFlag m as u when m == op ->
        if Mem.cas op.dg.update u (DDone op) then begin
          S.free t.ssmem op.dp;
          S.free t.ssmem op.dl
        end
    | _ -> ()

  (* help_delete: try to mark the parent; on success complete via
     help_marked, otherwise backtrack (unflag the grandparent). *)
  let rec help t (u : 'v update) =
    Mem.emit E.help;
    match u with
    | IFlag op as u -> help_insert u op
    | DFlag op -> ignore (help_delete t op)
    | Mark op -> help_marked t op
    | Init | IDone _ | DDone _ -> ()

  and help_delete t (op : 'v dinfo) =
    if Mem.cas op.dp.update op.pupdate (Mark op) then begin
      help_marked t op;
      true
    end
    else begin
      let u = Mem.get op.dp.update in
      if (match u with Mark m -> m == op | _ -> false) then begin
        (* already marked for this very operation (we or a helper won) *)
        help_marked t op;
        true
      end
      else begin
        (* failed to mark: help whatever is there, then backtrack by
           unflagging our own stored DFlag *)
        help t u;
        (match Mem.get op.dg.update with
        | DFlag m as dgu when m == op -> ignore (Mem.cas op.dg.update dgu (DDone op))
        | _ -> ());
        false
      end
    end

  (* Search returns (gp, gpupdate, p, pupdate, leaf). *)
  let seek t k =
    let rec go (gp : 'v internal) gpu (p : 'v internal) pu =
      match Mem.get (child_cell p k) with
      | Leaf l as lf ->
          Mem.touch l.line;
          (gp, gpu, p, pu, lf)
      | Internal i ->
          Mem.touch i.line;
          go p pu i (Mem.get i.update)
    in
    match Mem.get (child_cell t.root k) with
    | Internal i -> go t.root (Mem.get t.root.update) i (Mem.get i.update)
    | Leaf _ -> assert false

  let search t k =
    let rec go (p : 'v internal) =
      match Mem.get (child_cell p k) with
      | Leaf l ->
          Mem.touch l.line;
          if l.key = k then l.value else None
      | Internal i ->
          Mem.touch i.line;
          go i
    in
    go t.root

  let insert t k v =
    let rec attempt () =
      Mem.emit E.parse;
      let _, _, p, pu, lf = seek t k in
      match lf with
      | Leaf l when l.key = k -> false
      | Leaf l ->
          if not (is_clean pu) then begin
            help t pu;
            attempt ()
          end
          else begin
            Mem.emit E.parse_end;
            let nl = mk_leaf k (Some v) in
            let ni =
              if k < l.key then mk_internal l.key nl lf else mk_internal k lf nl
            in
            let op = { ip = p; inew = ni; il = lf } in
            let flag = IFlag op in
            if Mem.cas p.update pu flag then begin
              help_insert flag op;
              true
            end
            else begin
              Mem.emit E.cas_fail;
              help t (Mem.get p.update);
              attempt ()
            end
          end
      | Internal _ -> assert false
    in
    attempt ()

  let remove t k =
    let rec attempt () =
      Mem.emit E.parse;
      let gp, gpu, p, pu, lf = seek t k in
      match lf with
      | Leaf l when l.key <> k -> false
      | Leaf _ ->
          if not (is_clean gpu) then begin
            help t gpu;
            attempt ()
          end
          else if not (is_clean pu) then begin
            help t pu;
            attempt ()
          end
          else begin
            Mem.emit E.parse_end;
            let op = { dg = gp; dp = p; dl = lf; pupdate = pu } in
            if Mem.cas gp.update gpu (DFlag op) then begin
              if help_delete t op then true
              else begin
                Mem.emit E.restart;
                attempt ()
              end
            end
            else begin
              Mem.emit E.cas_fail;
              help t (Mem.get gp.update);
              attempt ()
            end
          end
      | Internal _ -> assert false
    in
    attempt ()

  let size t =
    let rec go = function
      | Leaf l -> if l.value = None then 0 else 1
      | Internal i -> go (Mem.get i.left) + go (Mem.get i.right)
    in
    go (Internal t.root)

  let validate t =
    let rec go nd lo hi =
      match nd with
      | Leaf l ->
          if l.value <> None && not (l.key >= lo && l.key < hi) then
            Error "leaf key outside router bounds"
          else Ok ()
      | Internal i ->
          if not (i.key > lo && i.key <= hi) then Error "internal key outside bounds"
          else (
            match go (Mem.get i.left) lo i.key with
            | Error _ as e -> e
            | Ok () -> go (Mem.get i.right) i.key hi)
    in
    go (Internal t.root) min_int max_int

  let op_done t = S.quiesce t.ssmem
end
