(** Drachsler, Vechev & Yahav's internal BST with logical ordering
    (Table 1 "drachsler"; PPoPP 2014).

    Every node sits both in the tree and in a sorted doubly-linked
    {e overlay} list (pred/succ) — the logical ordering.  Searches
    descend the tree to a candidate without any synchronization, then
    correct along the overlay, so reads are sequential (ASCY1-ish) even
    while the tree is being restructured.  The overlay, guarded by
    per-edge succ-locks, is the source of truth for membership; tree
    surgery (splice / relocate-successor) happens afterwards under
    per-node tree-locks, acquired with try-lock + full release to stay
    deadlock-free.  Removals take the pred's succ-lock, the victim's
    succ-lock and 2-4 tree locks — the ">= 3 locks per removal" of
    Table 1.

    [read_only_fail] applies ASCY3 as the paper does for drachsler. *)

module Make (Mem : Ascy_mem.Memory.S) = struct
  module L = Ascy_locks.Ttas.Make (Mem)
  module S = Ascy_ssmem.Ssmem.Make (Mem)
  module E = Ascy_mem.Event

  type 'v node = Nil | Node of 'v info

  and 'v info = {
    key : int;
    line : Mem.line;
    value : 'v option;
    marked : bool Mem.r;
    pred : 'v node Mem.r; (* overlay: always a Node for linked nodes *)
    succ : 'v node Mem.r;
    succ_lock : L.t;
    left : 'v node Mem.r;
    right : 'v node Mem.r;
    parent : 'v node Mem.r;
    tree_lock : L.t;
  }

  type 'v t = { head : 'v info; tail : 'v info; rof : bool; ssmem : S.t }

  let name = "bst-drachsler"

  let mk_info key value =
    let line = Mem.new_line () in
    {
      key;
      line;
      value;
      marked = Mem.make line false;
      pred = Mem.make line Nil;
      succ = Mem.make line Nil;
      succ_lock = L.create line;
      left = Mem.make line Nil;
      right = Mem.make line Nil;
      parent = Mem.make line Nil;
      tree_lock = L.create line;
    }

  let create ?hint:_ ?(read_only_fail = true) () =
    let head = mk_info min_int None in
    let tail = mk_info max_int None in
    Mem.set head.succ (Node tail);
    Mem.set tail.pred (Node head);
    (* tree: head is the root, tail its right child *)
    Mem.set head.right (Node tail);
    Mem.set tail.parent (Node head);
    {
      head;
      tail;
      rof = read_only_fail;
      ssmem = S.create ();
    }

  let info = function Node n -> n | Nil -> assert false

  (* Tree descent to a candidate (no synchronization), then overlay
     correction to the node with the largest key <= k. *)
  let locate t k =
    let rec descend (n : 'v info) =
      let c = if k < n.key then Mem.get n.left else Mem.get n.right in
      match c with
      | Nil -> n
      | Node m ->
          Mem.touch m.line;
          descend m
    in
    let c = descend t.head in
    let rec back (c : 'v info) =
      if c.key > k then back (info (Mem.get c.pred)) else c
    in
    let rec fwd (c : 'v info) =
      match Mem.get c.succ with
      | Node s when s.key <= k ->
          Mem.touch s.line;
          fwd s
      | _ -> c
    in
    fwd (back c)

  let search t k =
    let c = locate t k in
    if c.key = k && not (Mem.get c.marked) then c.value else None

  (* -------------------- overlay (logical) layer -------------------- *)

  (* Lock pred's succ-lock such that pred is live and pred.succ.key > k
     (with pred.key <= k); retries in place. *)
  let rec lock_pred t k =
    let p = locate t k in
    let p = if p.key = k then info (Mem.get p.pred) else p in
    L.acquire p.succ_lock;
    if Mem.get p.marked then begin
      L.release p.succ_lock;
      Mem.emit E.restart;
      lock_pred t k
    end
    else
      let s = info (Mem.get p.succ) in
      if p.key < k && s.key >= k then (p, s)
      else begin
        L.release p.succ_lock;
        Mem.emit E.restart;
        lock_pred t k
      end

  (* ---------------------- tree (physical) layer -------------------- *)

  (* In an internal BST, the attach point of a key is always its current
     in-order predecessor (right child free) or successor (left child
     free).  Drachsler exploits this: attach only under the node's
     *overlay* neighbours, whose tree locks serialize against their own
     relocation — an unsynchronized descent could land deep on a spine
     that a concurrent successor-relocation is about to move. *)
  let rec tree_attach t (n : 'v info) =
    let try_under (c : 'v info) cell =
      L.acquire c.tree_lock;
      let in_tree =
        c == t.head
        || (match Mem.get c.parent with
           | Node m -> (
               match Mem.get (if c.key < m.key then m.left else m.right) with
               | Node cc -> cc == c
               | Nil -> false)
           | Nil -> false)
      in
      let ok = in_tree && (match Mem.get cell with Nil -> true | Node _ -> false) in
      if ok then begin
        Mem.set cell (Node n);
        Mem.set n.parent (Node c)
      end;
      L.release c.tree_lock;
      ok
    in
    let p = info (Mem.get n.pred) in
    if (not (Mem.get p.marked)) && try_under p p.right then ()
    else begin
      let s = info (Mem.get n.succ) in
      if (not (Mem.get s.marked)) && try_under s s.left then ()
      else begin
        Mem.emit E.restart;
        Mem.cpu_relax ();
        tree_attach t n
      end
    end

  let child_cell (p : 'v info) (x : 'v info) =
    match Mem.get p.left with Node m when m == x -> p.left | _ -> p.right

  let is_child (p : 'v info) (x : 'v info) =
    match Mem.get (child_cell p x) with Node m -> m == x | Nil -> false

  (* Remove [x] from the tree.  Retries with try-locks until it wins. *)
  let rec tree_detach t (x : 'v info) =
    let with_locks locks f =
      let rec grab = function
        | [] -> true
        | (l : L.t) :: rest ->
            if L.try_acquire l then
              if grab rest then true
              else begin
                L.release l;
                false
              end
            else false
      in
      if grab locks then begin
        let r = f () in
        List.iter L.release locks;
        r
      end
      else false
    in
    let retry () =
      Mem.emit E.restart;
      Mem.cpu_relax ();
      tree_detach t x
    in
    (* a freshly inserted victim may not be attached to the tree yet;
       wait for its inserter to finish *)
    let rec parent_of () =
      match Mem.get x.parent with
      | Node p -> p
      | Nil ->
          Mem.emit E.wait;
          Mem.cpu_relax ();
          parent_of ()
    in
    let p = parent_of () in
    match (Mem.get x.left, Mem.get x.right) with
    | Nil, _ | _, Nil ->
        (* splice x out (its only child, if any, moves up) *)
        let ok =
          with_locks [ p.tree_lock; x.tree_lock ] (fun () ->
              if not (is_child p x) then false
              else begin
                match (Mem.get x.left, Mem.get x.right) with
                | Node _, Node _ -> false (* gained a child: relocate instead *)
                | (Nil, o | o, Nil) ->
                    Mem.set (child_cell p x) o;
                    (match o with Node om -> Mem.set om.parent (Node p) | Nil -> ());
                    true
              end)
        in
        if ok then S.free t.ssmem x else retry ()
    | Node _, Node _ ->
        (* two children: relocate x's in-order successor into x's slot *)
        let rec leftmost (m : 'v info) =
          match Mem.get m.left with Nil -> m | Node l -> leftmost l
        in
        let sm = leftmost (info (Mem.get x.right)) in
        let smp = info (Mem.get sm.parent) in
        let locks =
          if smp == x then [ p.tree_lock; x.tree_lock; sm.tree_lock ]
          else [ p.tree_lock; x.tree_lock; smp.tree_lock; sm.tree_lock ]
        in
        let ok =
          with_locks locks (fun () ->
              (* validate the whole constellation *)
              if
                is_child p x
                && (match Mem.get sm.parent with Node m -> m == smp | Nil -> false)
                && (match Mem.get sm.left with Nil -> true | Node _ -> false)
                (* sm must still hang where we found it — including when
                   its parent is x itself (a spliced-out node keeps its
                   stale parent pointer, so the parent check alone is not
                   enough) *)
                && is_child smp sm
                && (match Mem.get x.parent with Node m -> m == p | Nil -> false)
              then begin
                (* unhook sm (it has no left child) *)
                let smr = Mem.get sm.right in
                if smp == x then begin
                  (* sm is x.right: keep its right subtree in place *)
                  Mem.set sm.left (Mem.get x.left);
                  (match Mem.get x.left with Node l -> Mem.set l.parent (Node sm) | Nil -> ());
                  Mem.set (child_cell p x) (Node sm);
                  Mem.set sm.parent (Node p)
                end
                else begin
                  Mem.set (child_cell smp sm) smr;
                  (match smr with Node r -> Mem.set r.parent (Node smp) | Nil -> ());
                  Mem.set sm.left (Mem.get x.left);
                  Mem.set sm.right (Mem.get x.right);
                  (match Mem.get x.left with Node l -> Mem.set l.parent (Node sm) | Nil -> ());
                  (match Mem.get x.right with Node r -> Mem.set r.parent (Node sm) | Nil -> ());
                  Mem.set (child_cell p x) (Node sm);
                  Mem.set sm.parent (Node p)
                end;
                true
              end
              else false)
        in
        if ok then S.free t.ssmem x else retry ()

  (* ------------------------- operations --------------------------- *)

  let insert t k v =
    let quick_present () =
      let c = locate t k in
      c.key = k && not (Mem.get c.marked)
    in
    Mem.emit E.parse;
    let doomed = t.rof && quick_present () in
    Mem.emit E.parse_end;
    if doomed then false
    else begin
      let rec attempt () =
        let p, s = lock_pred t k in
        if s.key = k && not (Mem.get s.marked) then begin
          L.release p.succ_lock;
          false
        end
        else if s.key = k then begin
          (* marked duplicate still linked: wait for it to go *)
          L.release p.succ_lock;
          Mem.emit E.wait;
          Mem.cpu_relax ();
          attempt ()
        end
        else begin
          let n = mk_info k (Some v) in
          Mem.set n.pred (Node p);
          Mem.set n.succ (Node s);
          Mem.set s.pred (Node n);
          Mem.set p.succ (Node n);
          L.release p.succ_lock;
          tree_attach t n;
          true
        end
      in
      attempt ()
    end

  let remove t k =
    let quick_absent () =
      let c = locate t k in
      not (c.key = k && not (Mem.get c.marked))
    in
    Mem.emit E.parse;
    let doomed = t.rof && quick_absent () in
    Mem.emit E.parse_end;
    if doomed then false
    else begin
      let attempt () =
        let p, s = lock_pred t k in
        if not (s.key = k) then begin
          L.release p.succ_lock;
          false
        end
        else begin
          (* s is the victim; it cannot become marked while we hold the
             pred's succ-lock (marking requires that same lock) *)
          L.acquire s.succ_lock;
          if Mem.get s.marked then begin
            L.release s.succ_lock;
            L.release p.succ_lock;
            false
          end
          else begin
            Mem.set s.marked true;
            (* tree surgery FIRST, while the victim is still in the
               overlay: inserters whose overlay neighbour is the marked
               victim wait, so no key can attach under a stale pred while
               the victim still routes in the tree *)
            tree_detach t s;
            (* now unlink from the ordering list (locks still held);
               reverse the victim's succ so traversals standing on it
               retreat to the predecessor *)
            let nx = info (Mem.get s.succ) in
            Mem.set s.succ (Node p);
            Mem.set nx.pred (Node p);
            Mem.set p.succ (Node nx);
            L.release s.succ_lock;
            L.release p.succ_lock;
            true
          end
        end
      in
      attempt ()
    end

  let size t =
    let rec go (n : 'v info) acc =
      match Mem.get n.succ with
      | Node s when s == t.tail -> acc
      | Node s -> go s (acc + 1)
      | Nil -> acc
    in
    go t.head 0

  let validate t =
    (* overlay sorted + consistent back links; tree order sane *)
    let rec overlay (n : 'v info) last =
      match Mem.get n.succ with
      | Nil -> Error "overlay broken: missing tail"
      | Node s when s == t.tail -> Ok ()
      | Node s ->
          if s.key <= last then Error "overlay keys not increasing"
          else if not (info (Mem.get s.pred) == n) then Error "overlay pred/succ mismatch"
          else overlay s s.key
    in
    let rec tree nd lo hi =
      match nd with
      | Nil -> Ok ()
      | Node n ->
          if n.key <= lo || n.key > hi then Error "tree order violated"
          else (
            match tree (Mem.get n.left) lo n.key with
            | Error _ as e -> e
            | Ok () -> tree (Mem.get n.right) n.key hi)
    in
    match overlay t.head min_int with
    | Error _ as e -> e
    | Ok () -> tree (Mem.get t.head.right) min_int max_int

  let op_done t = S.quiesce t.ssmem
end
