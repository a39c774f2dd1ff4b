(* The CO protocol outside the simulator: a 3-participant "chat" over real
   loopback UDP datagrams, with 10% of the packets deliberately dropped on
   receive by a seeded fault injector on the socket path. Every participant
   still sees the conversation in causal order: a reply never appears
   before the message it answers, and the lossy transport is repaired by
   the protocol's own RET machinery — all in real wall-clock time. *)

module Udp = Repro_transport.Udp_cluster
module Config = Repro_core.Config
module Simtime = Repro_sim.Simtime
module Injector = Repro_fault.Injector

let () =
  let config =
    {
      Config.default with
      Config.defer = Config.Deferred { timeout = Simtime.of_ms 5 };
      ret_retry_timeout = Simtime.of_ms 15;
    }
  in
  let t = Udp.create ~config ~seed:42 ~n:3 () in
  Fun.protect ~finally:(fun () -> Udp.close t) @@ fun () ->
  let inj = Injector.create ~n:3 ~seed:42 () in
  Udp.set_fault_hook t (Injector.on_datagram inj);
  Injector.apply inj (Repro_fault.Plan.Loss 0.10);
  let say ~src text =
    Udp.submit t ~src text;
    (* Give the datagram time to propagate so later lines causally depend
       on it, like a human reading before typing. *)
    Udp.run_for t ~seconds:0.02
  in
  say ~src:0 "alice: anyone up for lunch?";
  say ~src:1 "bob: yes! the usual place?";
  say ~src:2 "carol: +1, see you at noon";
  say ~src:0 "alice: booked a table";

  if not (Udp.run_until_quiescent t ~max_seconds:10.) then begin
    print_endline "cluster did not quiesce in time";
    exit 1
  end;
  for e = 0 to 2 do
    Format.printf "@.participant %d sees:@." e;
    List.iter
      (fun (d : Repro_pdu.Pdu.data) -> Format.printf "  %s@." d.payload)
      (Udp.deliveries t ~entity:e)
  done;
  Format.printf
    "@.%d datagrams on the wire, %d deliberately dropped, conversation \
     intact everywhere ✓@."
    (Udp.datagrams_sent t) (Injector.stats inj).loss_drops
