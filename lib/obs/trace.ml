let on =
  ref
    (match Sys.getenv_opt "STP_SWEEP_TRACE" with
    | Some ("1" | "true" | "yes" | "on") -> true
    | _ -> false)

let enabled () = !on
let enable () = on := true

let epoch = ref None

let emitf fmt =
  Printf.ksprintf
    (fun msg ->
      if !on then begin
        let now = Clock.now () in
        let t0 =
          match !epoch with
          | Some t -> t
          | None ->
            epoch := Some now;
            now
        in
        (* A diagnostic must never fail the operation it describes: a
           line that cannot be written (say, stderr is a closed pipe and
           SIGPIPE is ignored) is dropped. *)
        try Printf.eprintf "[trace +%.3fs] %s\n%!" (now -. t0) msg
        with Sys_error _ -> ()
      end)
    fmt
