(** The coherence-model registry: every {!Cohmodel.S} implementation,
    addressable by the stable name CLIs use and replay files record. *)

let mesi : Cohmodel.spec =
  (module struct
    include Coh_dir

    let name = "mesi"
    let create = create ~victim:false
  end)

let flat : Cohmodel.spec = (module Coh_flat)

let moesi : Cohmodel.spec =
  (module struct
    include Coh_dir

    let name = "moesi"
    let create = create ~victim:true
  end)

(** The default everywhere a model is not explicitly selected.  The
    entire pre-refactor behavior — golden results, schedule counts,
    replay files — is the behavior of this model. *)
let default = mesi

let all = [ mesi; flat; moesi ]

let names = List.map Cohmodel.name all

let by_name name =
  match List.find_opt (fun m -> Cohmodel.name m = String.lowercase_ascii name) all with
  | Some m -> m
  | None ->
      invalid_arg
        (Printf.sprintf "unknown coherence model: %s (expected one of: %s)" name
           (String.concat ", " names))

(** {!by_name} for command lines: an unknown name prints
    [prog: unknown coherence model: ...] on stderr and exits 2. *)
let by_name_or_exit ~prog name =
  match by_name name with
  | m -> m
  | exception Invalid_argument msg ->
      Printf.eprintf "%s: %s\n" prog msg;
      exit 2
