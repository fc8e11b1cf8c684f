-- The TPC-C benchmark (Appendix E.2 / Figure 17 of the paper): nine relations, twelve foreign
-- keys and five transaction programs with loops, branches, inserts, deletes and predicate
-- reads. `Unfold≤2` turns the five programs into 13 LTPs (Table 2). The programs are declared
-- in Figure 17's order, so their statements are numbered q1–q29 as in the figure.
--
-- Foreign-key constraints. The appendix lists the schema-level foreign keys f1–f12 but not
-- the per-program constraints q_j = f(q_i). The translator infers them from host parameters
-- that a statement binds by an equality predicate or an INSERT value (a `SELECT … INTO`
-- target binds nothing), so each program binds its parameters to say what TPC-C means:
--
-- * Delivery: the deleted New_Order tuple (q2) and the Order_Line tuples updated and read
--   (q5, q6) belong to the order accessed by q3/q4 (f5, f8). The order id comes from q1 and
--   the customer id from q3, both by `SELECT … INTO`, so q1 and q7 are not tied to the order:
--   q3 = f5(q1), q4 = f5(q1), q7 = f7(q3) and q7 = f7(q4) are not inferred.
-- * NewOrder: the inserted order (q11) belongs to the district updated by q10 (f6) and the
--   customer read by q8 (f7); the new New_Order (q12) and Order_Line (q15) tuples reference
--   that order (f5, f8); order lines reference the item read in the same loop iteration (f9),
--   as does the stock tuple (f11); the customer lives in the updated district (f2) and the
--   district in the warehouse read by q9 (f1). The supply warehouse :SW is a parameter of its
--   own, so f10 and f12 give no constraint: TPC-C allows remote supply warehouses.
-- * OrderStatus: the orders scanned by q18 belong to the customer selected by key in q17
--   (f7); the by-name variant q16 binds no customer id, so no constraint involves it.
-- * Payment: the updated district lives in the updated warehouse (f1); the paid customer
--   lives in that district (f2; the common local-customer case, which is what makes
--   {NewOrder, Payment} detectable; remote payments would need a separate program); the
--   inserted history tuple references that customer and district (f3, f4). Since q24 and q25
--   bind the same customer key as q23, q24 = f3(q26) and q25 = f3(q26) are inferred too.
-- * StockLevel: read-only scans with no key-based statement over a referenced relation, so
--   no constraints.
SCHEMA TPCC;

TABLE Warehouse (w_id, w_name, w_street_1, w_street_2, w_city, w_state, w_zip, w_tax, w_ytd,
    PRIMARY KEY (w_id));
TABLE District (d_id, d_w_id, d_name, d_street_1, d_street_2, d_city, d_state, d_zip, d_tax,
    d_ytd, d_next_o_id, PRIMARY KEY (d_id, d_w_id));
TABLE Customer (c_id, c_d_id, c_w_id, c_first, c_middle, c_last, c_street_1, c_street_2,
    c_city, c_state, c_zip, c_phone, c_since, c_credit, c_credit_lim, c_discount, c_balance,
    c_ytd_payment, c_payment_cnt, c_delivery_cnt, c_data, PRIMARY KEY (c_id, c_d_id, c_w_id));
TABLE History (h_c_id, h_c_d_id, h_c_w_id, h_d_id, h_w_id, h_date, h_amount, h_data,
    PRIMARY KEY (h_c_id, h_c_d_id, h_c_w_id, h_d_id, h_w_id, h_date));
TABLE New_Order (no_o_id, no_d_id, no_w_id, PRIMARY KEY (no_o_id, no_d_id, no_w_id));
TABLE Orders (o_id, o_d_id, o_w_id, o_c_id, o_entry_id, o_carrier_id, o_ol_cnt, o_all_local,
    PRIMARY KEY (o_id, o_d_id, o_w_id));
TABLE Order_Line (ol_o_id, ol_d_id, ol_w_id, ol_number, ol_i_id, ol_supply_w_id,
    ol_delivery_d, ol_quantity, ol_amount, ol_dist_info,
    PRIMARY KEY (ol_o_id, ol_d_id, ol_w_id, ol_number));
TABLE Item (i_id, i_im_id, i_name, i_price, i_data, PRIMARY KEY (i_id));
TABLE Stock (s_i_id, s_w_id, s_quantity, s_dist_01, s_dist_02, s_dist_03, s_dist_04,
    s_dist_05, s_dist_06, s_dist_07, s_dist_08, s_dist_09, s_dist_10, s_ytd, s_order_cnt,
    s_remote_cnt, s_data, PRIMARY KEY (s_i_id, s_w_id));

FOREIGN KEY f1: District (d_w_id) REFERENCES Warehouse (w_id);
FOREIGN KEY f2: Customer (c_d_id, c_w_id) REFERENCES District (d_id, d_w_id);
FOREIGN KEY f3: History (h_c_id, h_c_d_id, h_c_w_id) REFERENCES Customer (c_id, c_d_id, c_w_id);
FOREIGN KEY f4: History (h_d_id, h_w_id) REFERENCES District (d_id, d_w_id);
FOREIGN KEY f5: New_Order (no_o_id, no_d_id, no_w_id) REFERENCES Orders (o_id, o_d_id, o_w_id);
FOREIGN KEY f6: Orders (o_d_id, o_w_id) REFERENCES District (d_id, d_w_id);
FOREIGN KEY f7: Orders (o_c_id, o_d_id, o_w_id) REFERENCES Customer (c_id, c_d_id, c_w_id);
FOREIGN KEY f8: Order_Line (ol_o_id, ol_d_id, ol_w_id) REFERENCES Orders (o_id, o_d_id, o_w_id);
FOREIGN KEY f9: Order_Line (ol_i_id) REFERENCES Item (i_id);
FOREIGN KEY f10: Order_Line (ol_supply_w_id) REFERENCES Warehouse (w_id);
FOREIGN KEY f11: Stock (s_i_id) REFERENCES Item (i_id);
FOREIGN KEY f12: Stock (s_w_id) REFERENCES Warehouse (w_id);

-- Delivery: deliver the oldest open order of every district of warehouse :W.
PROGRAM Delivery(:W, :Carrier, :Date) {
    FOR each district :D DO
        SELECT no_o_id INTO :O FROM New_Order WHERE no_d_id = :D AND no_w_id = :W;
        DELETE FROM New_Order WHERE no_o_id = :O AND no_d_id = :D AND no_w_id = :W;
        SELECT o_c_id INTO :C FROM Orders WHERE o_id = :O AND o_d_id = :D AND o_w_id = :W;
        UPDATE Orders SET o_carrier_id = :Carrier WHERE o_id = :O AND o_d_id = :D AND o_w_id = :W;
        UPDATE Order_Line SET ol_delivery_d = :Date
            WHERE ol_o_id = :O AND ol_d_id = :D AND ol_w_id = :W;
        SELECT ol_amount INTO :Total FROM Order_Line
            WHERE ol_o_id = :O AND ol_d_id = :D AND ol_w_id = :W;
        UPDATE Customer SET c_balance = c_balance + :Total, c_delivery_cnt = c_delivery_cnt + 1
            WHERE c_id = :C AND c_d_id = :D AND c_w_id = :W;
    ENDFOR;
}

-- NewOrder: enter an order of customer :C with its order lines.
PROGRAM NewOrder(:W, :D, :C, :O, :Date, :Count, :Local, :Carrier) {
    SELECT c_discount, c_last, c_credit FROM Customer
        WHERE c_id = :C AND c_d_id = :D AND c_w_id = :W;
    SELECT w_tax FROM Warehouse WHERE w_id = :W;
    UPDATE District SET d_next_o_id = d_next_o_id + 1 WHERE d_id = :D AND d_w_id = :W
        RETURNING d_tax;
    INSERT INTO Orders VALUES (:O, :D, :W, :C, :Date, :Carrier, :Count, :Local);
    INSERT INTO New_Order VALUES (:O, :D, :W);
    FOR each order line :N DO
        SELECT i_price, i_name, i_data FROM Item WHERE i_id = :I;
        UPDATE Stock SET s_quantity = s_quantity - :Q, s_ytd = s_ytd + :Q,
                s_order_cnt = s_order_cnt + 1, s_remote_cnt = s_remote_cnt + :Remote
            WHERE s_i_id = :I AND s_w_id = :SW
            RETURNING s_data, s_dist_01, s_dist_02, s_dist_03, s_dist_04, s_dist_05, s_dist_06,
                s_dist_07, s_dist_08, s_dist_09, s_dist_10;
        INSERT INTO Order_Line
            VALUES (:O, :D, :W, :N, :I, :SW, :DeliveryDate, :Q, :Amount, :DistInfo);
    ENDFOR;
}

-- OrderStatus: the most recent order of a customer, found by last name or by id.
PROGRAM OrderStatus(:W, :D, :C, :Last) {
    IF :ByName THEN
        SELECT c_balance, c_first, c_middle, c_id FROM Customer
            WHERE c_last = :Last AND c_d_id = :D AND c_w_id = :W;
    ELSE
        SELECT c_balance, c_first, c_middle, c_last FROM Customer
            WHERE c_id = :C AND c_d_id = :D AND c_w_id = :W;
    ENDIF;
    SELECT o_id, o_entry_id, o_carrier_id INTO :O FROM Orders
        WHERE o_c_id = :C AND o_d_id = :D AND o_w_id = :W;
    SELECT ol_i_id, ol_supply_w_id, ol_quantity, ol_amount, ol_delivery_d FROM Order_Line
        WHERE ol_o_id = :O AND ol_d_id = :D AND ol_w_id = :W;
}

-- Payment: customer :C pays :H, credited to warehouse :W and district :D.
PROGRAM Payment(:W, :D, :C, :Last, :H, :Date) {
    UPDATE Warehouse SET w_ytd = w_ytd + :H WHERE w_id = :W
        RETURNING w_name, w_street_1, w_street_2, w_city, w_state, w_zip;
    UPDATE District SET d_ytd = d_ytd + :H WHERE d_id = :D AND d_w_id = :W
        RETURNING d_name, d_street_1, d_street_2, d_city, d_state, d_zip;
    IF :ByName THEN
        SELECT c_id INTO :C FROM Customer WHERE c_last = :Last AND c_d_id = :D AND c_w_id = :W;
    ENDIF;
    UPDATE Customer SET c_balance = c_balance - :H, c_ytd_payment = c_ytd_payment + :H,
            c_payment_cnt = :PaymentCount
        WHERE c_id = :C AND c_d_id = :D AND c_w_id = :W
        RETURNING c_first, c_middle, c_last, c_street_1, c_street_2, c_city, c_state, c_zip,
            c_phone, c_since, c_credit, c_credit_lim, c_discount;
    IF :BadCredit THEN
        SELECT c_data INTO :Data FROM Customer WHERE c_id = :C AND c_d_id = :D AND c_w_id = :W;
        UPDATE Customer SET c_data = :NewData WHERE c_id = :C AND c_d_id = :D AND c_w_id = :W;
    ENDIF;
    INSERT INTO History VALUES (:C, :D, :W, :D, :W, :Date, :H, :HistoryData);
}

-- StockLevel: count the recently sold items of district :D whose stock is below :Threshold.
PROGRAM StockLevel(:W, :D, :Threshold) {
    SELECT d_next_o_id INTO :Next FROM District WHERE d_id = :D AND d_w_id = :W;
    SELECT ol_i_id FROM Order_Line WHERE ol_w_id = :W AND ol_d_id = :D AND ol_o_id < :Next;
    SELECT s_i_id FROM Stock WHERE s_w_id = :W AND s_quantity < :Threshold;
}
