(** Optimistic lazy skip list (Table 1 "herlihy"; Herlihy, Lev,
    Luchangco & Shavit, SIROCCO 2007).

    Searches traverse the tower with no synchronization; membership is
    [found && fully_linked && not marked].  Updates parse optimistically,
    lock the predecessors at every level, validate, and link/unlink.
    Removal marks the victim (logical deletion) before unlinking top-down
    under the locks.

    [read_only_fail] (ASCY3, applied by the paper to this algorithm)
    makes an update whose parse shows failure return with no stores; with
    [~read_only_fail:false] the update performs the lock-validate dance
    before failing. *)

module Make (Mem : Ascy_mem.Memory.S) = struct
  module L = Ascy_locks.Ttas.Make (Mem)
  module S = Ascy_ssmem.Ssmem.Make (Mem)
  module Lg = Level_gen.Make (Mem)
  module E = Ascy_mem.Event

  type 'v node = Nil | Node of 'v info

  and 'v info = {
    key : int;
    value : 'v option;
    line : Mem.line;
    lock : L.t;
    marked : bool Mem.r;
    fully_linked : bool Mem.r;
    nexts : 'v node Mem.r array;
  }

  type 'v t = { head : 'v info; levels : Lg.t; rof : bool; ssmem : S.t }

  let name = "sl-herlihy"

  let mk_info key value height =
    let line = Mem.new_line () in
    {
      key;
      value;
      line;
      lock = L.create line;
      marked = Mem.make line false;
      fully_linked = Mem.make line false;
      nexts = Array.init height (fun _ -> Mem.make line Nil);
    }

  let create ?hint ?(read_only_fail = true) () =
    let max_level = Lg.max_for_hint (Option.value hint ~default:1024) in
    let head = mk_info min_int None max_level in
    Mem.set head.fully_linked true;
    {
      head;
      levels = Lg.create max_level;
      rof = read_only_fail;
      ssmem = S.create ();
    }

  let height t = Array.length t.head.nexts

  (* Optimistic parse: fills preds/succs, returns the highest level at
     which the key was found (-1 if absent). *)
  let find t k preds succs =
    Mem.emit E.parse;
    let lfound = ref (-1) in
    let rec go info lvl =
      if lvl < 0 then !lfound
      else
        match Mem.get info.nexts.(lvl) with
        | Node n when n.key < k ->
            Mem.touch n.line;
            go n lvl
        | succ ->
            (match succ with
            | Node n when n.key = k && !lfound < 0 -> lfound := lvl
            | _ -> ());
            preds.(lvl) <- info;
            succs.(lvl) <- succ;
            go info (lvl - 1)
    in
    go t.head (height t - 1)

  let search t k =
    let rec go info lvl =
      if lvl < 0 then None
      else
        match Mem.get info.nexts.(lvl) with
        | Node n when n.key < k ->
            Mem.touch n.line;
            go n lvl
        | Node n when n.key = k ->
            if Mem.get n.fully_linked && not (Mem.get n.marked) then n.value else None
        | _ -> go info (lvl - 1)
    in
    go t.head (height t - 1)

  (* Lock preds.(0..top); avoids double-locking repeated preds.  Returns
     the list of locked infos (to unlock) and the validation verdict. *)
  let lock_preds preds succs top ~victim =
    let locked = ref [] in
    let valid = ref true in
    (try
       let prev = ref None in
       for lvl = 0 to top do
         let pred = preds.(lvl) in
         (match !prev with
         | Some p when p == pred -> ()
         | _ ->
             L.acquire pred.lock;
             locked := pred :: !locked;
             prev := Some pred);
         let succ_ok =
           match victim with
           | Some v -> (match Mem.get pred.nexts.(lvl) with Node n -> n == v | Nil -> false)
           | None -> Mem.get pred.nexts.(lvl) == succs.(lvl)
         in
         if Mem.get pred.marked || not succ_ok then begin
           valid := false;
           raise Exit
         end
       done
     with Exit -> ());
    (!locked, !valid)

  let unlock_all locked = List.iter (fun (p : 'v info) -> L.release p.lock) locked

  let insert t k v =
    let h = height t in
    let preds = Array.make h t.head and succs = Array.make h Nil in
    let rec attempt () =
      let lfound = find t k preds succs in
      Mem.emit E.parse_end;
      if lfound >= 0 then begin
        match succs.(lfound) with
        | Node n when not (Mem.get n.marked) ->
            if not t.rof then begin
              (* "-no" variant: lock + validate before failing *)
              let locked, _ = lock_preds preds succs 0 ~victim:None in
              unlock_all locked
            end;
            (* wait for a concurrent insert of the same key to finish *)
            while not (Mem.get n.fully_linked) do
              Mem.emit E.wait;
              Mem.cpu_relax ()
            done;
            false
        | _ ->
            Mem.emit E.restart;
            attempt () (* found but marked: being removed, retry *)
      end
      else begin
        let top_layer = Lg.next t.levels in
        let locked, valid = lock_preds preds succs (top_layer - 1) ~victim:None in
        if not valid then begin
          unlock_all locked;
          Mem.emit E.restart;
          attempt ()
        end
        else begin
          let n = mk_info k (Some v) top_layer in
          for lvl = 0 to top_layer - 1 do
            Mem.set n.nexts.(lvl) succs.(lvl)
          done;
          for lvl = 0 to top_layer - 1 do
            Mem.set preds.(lvl).nexts.(lvl) (Node n)
          done;
          Mem.set n.fully_linked true;
          unlock_all locked;
          true
        end
      end
    in
    attempt ()

  let remove t k =
    let h = height t in
    let preds = Array.make h t.head and succs = Array.make h Nil in
    let victim_locked = ref None in
    let finish r =
      (match !victim_locked with Some (v : 'v info) -> L.release v.lock | None -> ());
      r
    in
    let rec attempt () =
      let lfound = find t k preds succs in
      Mem.emit E.parse_end;
      let candidate =
        match (!victim_locked, lfound) with
        | Some v, _ -> Some v
        | None, -1 -> None
        | None, l -> (
            match succs.(l) with
            | Node n
              when Mem.get n.fully_linked
                   && Array.length n.nexts - 1 = l
                   && not (Mem.get n.marked) ->
                Some n
            | _ -> None)
      in
      match candidate with
      | None ->
          if (not t.rof) && lfound >= 0 then begin
            let locked, _ = lock_preds preds succs 0 ~victim:None in
            unlock_all locked
          end;
          finish false
      | Some victim ->
          if (match !victim_locked with None -> true | Some _ -> false) then begin
            L.acquire victim.lock;
            if Mem.get victim.marked then begin
              L.release victim.lock;
              finish false
            end
            else begin
              Mem.set victim.marked true;
              victim_locked := Some victim;
              proceed victim
            end
          end
          else proceed victim
    and proceed victim =
      let top = Array.length victim.nexts - 1 in
      let locked, valid = lock_preds preds succs top ~victim:(Some victim) in
      if not valid then begin
        unlock_all locked;
        Mem.emit E.restart;
        attempt ()
      end
      else begin
        for lvl = top downto 0 do
          Mem.set preds.(lvl).nexts.(lvl) (Mem.get victim.nexts.(lvl))
        done;
        unlock_all locked;
        S.free t.ssmem victim;
        finish true
      end
    in
    attempt ()

  let size t =
    let rec go info acc =
      match Mem.get info.nexts.(0) with
      | Nil -> acc
      | Node n ->
          go n (if Mem.get n.marked || not (Mem.get n.fully_linked) then acc else acc + 1)
    in
    go t.head 0

  let validate t =
    let rec level0 info last =
      match Mem.get info.nexts.(0) with
      | Nil -> Ok ()
      | Node n -> if n.key <= last then Error "keys not strictly increasing" else level0 n n.key
    in
    level0 t.head min_int

  let op_done t = S.quiesce t.ssmem
end
