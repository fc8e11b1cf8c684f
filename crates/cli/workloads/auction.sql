-- The Auction workload from Section 2 / Figure 1 of the paper, as a self-contained
-- workload file: catalog declarations followed by the two transaction programs, whose
-- statements are numbered q1–q6 as in Figure 2. `--benchmark auction` analyzes this file.
SCHEMA Auction;

TABLE Buyer (id, calls, PRIMARY KEY (id));
TABLE Bids  (buyerId, bid, PRIMARY KEY (buyerId));
TABLE Log   (id, buyerId, bid, PRIMARY KEY (id));

FOREIGN KEY f1: Bids (buyerId) REFERENCES Buyer (id);
FOREIGN KEY f2: Log  (buyerId) REFERENCES Buyer (id);

-- FindBids: log the call, then scan for bids above a threshold (a predicate read).
PROGRAM FindBids(:B, :T) {
    UPDATE Buyer SET calls = calls + 1 WHERE id = :B;
    SELECT bid FROM Bids WHERE bid >= :T;
}

-- PlaceBid: log the call, read the buyer's current bid and raise it if the new offer is
-- higher, recording the attempt. Parameter reuse of :B lets the analyzer infer the
-- foreign-key constraints q3 = f1(q4), q3 = f1(q5) and q3 = f2(q6) of Section 5.1.
PROGRAM PlaceBid(:B, :V) {
    UPDATE Buyer SET calls = calls + 1 WHERE id = :B;
    SELECT bid INTO :C FROM Bids WHERE buyerId = :B;
    IF :C < :V THEN
        UPDATE Bids SET bid = :V WHERE buyerId = :B;
    ENDIF;
    INSERT INTO Log VALUES (:logId, :B, :V);
}
