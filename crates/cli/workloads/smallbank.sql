-- The SmallBank benchmark (Appendix E.1 / Figure 10 of the paper) as a self-contained
-- workload file; `--benchmark smallbank` analyzes this file. Its statements are numbered
-- q1–q16 across the programs, as in Figure 10.
--
-- Each program binds the customer id parameter (:C…) both in the Account lookup and in the
-- statements over Savings/Checking, so the analyzer infers the foreign-key constraints of
-- Figure 10 (e.g. q3 = fs(q1) in Amalgamate).
SCHEMA SmallBank;

TABLE Account  (Name, CustomerId, PRIMARY KEY (Name));
TABLE Savings  (CustomerId, Balance, PRIMARY KEY (CustomerId));
TABLE Checking (CustomerId, Balance, PRIMARY KEY (CustomerId));

FOREIGN KEY fk_savings:  Account (CustomerId) REFERENCES Savings  (CustomerId);
FOREIGN KEY fk_checking: Account (CustomerId) REFERENCES Checking (CustomerId);

-- Amalgamate(N1, N2): move all the funds of customer 1 to customer 2.
PROGRAM Amalgamate(:N1, :C1, :N2, :C2) {
    SELECT CustomerId FROM Account WHERE Name = :N1 AND CustomerId = :C1;
    SELECT CustomerId FROM Account WHERE Name = :N2 AND CustomerId = :C2;
    UPDATE Savings  SET Balance = Balance - Balance WHERE CustomerId = :C1;
    UPDATE Checking SET Balance = Balance - Balance WHERE CustomerId = :C1;
    UPDATE Checking SET Balance = Balance + :Total  WHERE CustomerId = :C2;
}

-- Balance(N): read-only total balance of a customer.
PROGRAM Balance(:N, :C) {
    SELECT CustomerId FROM Account  WHERE Name = :N AND CustomerId = :C;
    SELECT Balance    FROM Savings  WHERE CustomerId = :C;
    SELECT Balance    FROM Checking WHERE CustomerId = :C;
}

-- DepositChecking(N, V): deposit into the checking account.
PROGRAM DepositChecking(:N, :C, :V) {
    SELECT CustomerId FROM Account WHERE Name = :N AND CustomerId = :C;
    UPDATE Checking SET Balance = Balance + :V WHERE CustomerId = :C;
}

-- TransactSavings(N, V): deposit into / withdraw from the savings account.
PROGRAM TransactSavings(:N, :C, :V) {
    SELECT CustomerId FROM Account WHERE Name = :N AND CustomerId = :C;
    UPDATE Savings SET Balance = Balance + :V WHERE CustomerId = :C;
}

-- WriteCheck(N, V): write a check against the total balance, penalizing overdraws.
PROGRAM WriteCheck(:N, :C, :V) {
    SELECT CustomerId FROM Account  WHERE Name = :N AND CustomerId = :C;
    SELECT Balance    FROM Savings  WHERE CustomerId = :C;
    SELECT Balance    FROM Checking WHERE CustomerId = :C;
    UPDATE Checking SET Balance = Balance - :V WHERE CustomerId = :C;
}
